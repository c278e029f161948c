// Package blob is the object-store seam under the durable snapshot
// pipeline: a tiny Put/Get/List/Delete surface over streamed readers, with
// two production backends — a local directory whose writes are crash-safe
// (temp file + fsync + atomic rename, so a killed process never leaves a
// torn object) and an S3-style HTTP store (per-request timeouts, bounded
// retry with backoff on 5xx and connection faults, content-length and
// SHA-256 integrity checks on both directions) — plus an in-memory store
// and a fault-injecting wrapper for the crash-restart differential suites.
//
// The snapshot layer on top (internal/shard's Saver/LoadFromStore) writes
// immutable content-addressed objects and publishes a versioned manifest
// last, so every observable store state is a consistent snapshot no matter
// where a save is killed; the store itself only promises that an individual
// Put is atomic (readers see the old object or the new one, never a mix)
// on the real backends.
package blob

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
)

// ErrNotFound marks a Get of a key with no object behind it. Backends wrap
// it so errors.Is works across transports.
var ErrNotFound = errors.New("blob: object not found")

// maxObjectBytes bounds a single object read on the HTTP transport. Shard
// snapshots are tens of megabytes at production corpus sizes; anything past
// this is a protocol error, not data.
const maxObjectBytes = 1 << 30

// Store is the object-store surface the snapshot pipeline runs on. Keys
// are slash-separated paths (see ValidKey). Implementations must be safe
// for concurrent use; Put must be atomic per key on durable backends
// (a reader never observes a partially written object), Delete of a
// missing key is a no-op, and Get of a missing key fails with ErrNotFound.
type Store interface {
	// Put streams r into the object at key, replacing any previous object.
	Put(ctx context.Context, key string, r io.Reader) error
	// Get opens the object at key for reading; the caller closes it.
	Get(ctx context.Context, key string) (io.ReadCloser, error)
	// List returns every key with the given prefix, sorted ascending.
	List(ctx context.Context, prefix string) ([]string, error)
	// Delete removes the object at key; missing keys are not an error.
	Delete(ctx context.Context, key string) error
}

// ValidKey reports whether key is acceptable to every backend: a
// non-empty, slash-separated relative path of [A-Za-z0-9._-] segments,
// with no empty, "." or ".." segment — so a key can never escape a
// directory store's root or smuggle path tricks into a URL.
func ValidKey(key string) bool {
	if key == "" || len(key) > 512 {
		return false
	}
	for _, seg := range strings.Split(key, "/") {
		if seg == "" || seg == "." || seg == ".." {
			return false
		}
		for _, c := range seg {
			switch {
			case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			case c == '.' || c == '_' || c == '-':
			default:
				return false
			}
		}
	}
	return true
}

// checkKey wraps ValidKey in the error every backend returns.
func checkKey(key string) error {
	if !ValidKey(key) {
		return fmt.Errorf("blob: invalid object key %q", key)
	}
	return nil
}

// PutBytes is the Put convenience for callers holding the object in memory
// (the snapshot layer always does — objects are gob buffers).
func PutBytes(ctx context.Context, s Store, key string, b []byte) error {
	return s.Put(ctx, key, strings.NewReader(string(b)))
}

// GetBytes reads the whole object at key.
func GetBytes(ctx context.Context, s Store, key string) ([]byte, error) {
	rc, err := s.Get(ctx, key)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(io.LimitReader(rc, maxObjectBytes))
}

// Open resolves a store spec the way the cedserve -store flag does: an
// http:// or https:// base URL opens the HTTP object store, anything else
// is a local directory (created if missing).
func Open(spec string) (Store, error) {
	if strings.HasPrefix(spec, "http://") || strings.HasPrefix(spec, "https://") {
		return NewHTTPStore(spec, HTTPConfig{}), nil
	}
	return NewDirStore(spec)
}
