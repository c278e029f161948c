// Package blob is the object-store seam under the durable snapshot
// pipeline: a tiny Put/Get/List/Delete surface over whole objects, with
// one production backend — a local directory whose writes are crash-safe
// (temp file + fsync + atomic rename, so a killed process never leaves a
// torn object) — plus an in-memory store and a fault-injecting wrapper for
// the crash-restart differential suites.
//
// The snapshot layer on top (internal/shard's Saver/LoadFromStore) writes
// immutable content-addressed objects and publishes a versioned manifest
// last, so every observable store state is a consistent snapshot no matter
// where a save is killed; the store itself only promises that an individual
// Put is atomic (readers see the old object or the new one, never a mix)
// on the durable backend.
package blob

import (
	"context"
	"errors"
	"fmt"
	"strings"
)

// ErrNotFound marks a Get of a key with no object behind it. Backends wrap
// it so errors.Is works on every backend.
var ErrNotFound = errors.New("blob: object not found")

// maxObjectBytes bounds a single object read. Shard snapshots are tens of
// megabytes at production corpus sizes; an object past this is refused
// with an error rather than read into memory.
const maxObjectBytes = 1 << 30

// Store is the object-store surface the snapshot pipeline runs on. Keys
// are slash-separated paths (see ValidKey). Implementations must be safe
// for concurrent use; Put must be atomic per key on durable backends
// (a reader never observes a partially written object), Delete of a
// missing key is a no-op, and Get of a missing key fails with ErrNotFound.
type Store interface {
	// Put writes b as the object at key, replacing any previous object.
	// The store does not keep b.
	Put(ctx context.Context, key string, b []byte) error
	// Get reads the whole object at key into a slice the caller owns.
	Get(ctx context.Context, key string) ([]byte, error)
	// List returns every key with the given prefix, sorted ascending.
	List(ctx context.Context, prefix string) ([]string, error)
	// Delete removes the object at key; missing keys are not an error.
	Delete(ctx context.Context, key string) error
}

// ValidKey reports whether key is acceptable to every backend: a
// non-empty, slash-separated relative path of [A-Za-z0-9._-] segments,
// with no empty, "." or ".." segment — so a key can never escape a
// directory store's root.
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
