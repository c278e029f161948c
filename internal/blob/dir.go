package blob

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// DirStore keeps objects as files under a root directory, one file per key
// (slashes in keys become subdirectories). Writes are crash-safe: the
// object streams into a same-directory temp file, is fsynced, atomically
// renamed over the final name, and the parent directory is fsynced — so a
// process killed at any instant leaves either the old object or the new
// one, never a torn file. This is the backend behind cedserve -store DIR.
type DirStore struct {
	root string
}

// NewDirStore opens (creating if missing) a directory store rooted at dir.
func NewDirStore(dir string) (*DirStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("blob: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blob: opening store: %w", err)
	}
	return &DirStore{root: dir}, nil
}

// Root returns the store's root directory.
func (s *DirStore) Root() string { return s.root }

// path maps a validated key to its file path.
func (s *DirStore) path(key string) string {
	return filepath.Join(s.root, filepath.FromSlash(key))
}

func (s *DirStore) Put(ctx context.Context, key string, r io.Reader) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	dst := s.path(key)
	dir := filepath.Dir(dst)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("blob: put %s: %w", key, err)
	}
	err := writeFileAtomic(dst, func(w io.Writer) error {
		_, err := io.Copy(w, r)
		return err
	})
	if err != nil {
		return fmt.Errorf("blob: put %s: %w", key, err)
	}
	return nil
}

func (s *DirStore) Get(ctx context.Context, key string) (io.ReadCloser, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f, err := os.Open(s.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("blob: get %s: %w", key, ErrNotFound)
		}
		return nil, fmt.Errorf("blob: get %s: %w", key, err)
	}
	return f, nil
}

func (s *DirStore) List(ctx context.Context, prefix string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var keys []string
	err := filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			// A directory raced away mid-walk (concurrent GC); skip it.
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if d.IsDir() || strings.Contains(d.Name(), ".tmp") {
			return nil
		}
		rel, err := filepath.Rel(s.root, path)
		if err != nil {
			return err
		}
		key := filepath.ToSlash(rel)
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("blob: list %s: %w", prefix, err)
	}
	sort.Strings(keys)
	return keys, nil
}

func (s *DirStore) Delete(ctx context.Context, key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := os.Remove(s.path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("blob: delete %s: %w", key, err)
	}
	return nil
}

// writeFileAtomic writes a file via a same-directory temp file, fsync and
// atomic rename. A crash at any instant leaves either the previous file or
// the complete new one — never a truncated or interleaved hybrid.
func writeFileAtomic(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name()) // no-op after a successful rename
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	// fsync before rename: rename-before-sync can surface a zero-length
	// file after a power loss even though the rename itself is atomic.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Best-effort: some filesystems refuse directory fsync, and the rename is
// already atomic — the sync only narrows the post-crash visibility window.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
