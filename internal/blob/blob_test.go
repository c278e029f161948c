package blob

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// openBackends returns one of each Store implementation over fresh state,
// so every backend passes the same conformance suite.
func openBackends(t *testing.T) map[string]Store {
	t.Helper()
	dir, err := NewDirStore(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	return map[string]Store{
		"dir":   dir,
		"mem":   NewMemStore(),
		"fault": NewFaultStore(NewMemStore()),
	}
}

func TestStoreConformance(t *testing.T) {
	ctx := context.Background()
	for name, s := range openBackends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Get(ctx, "missing/key"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get missing: err = %v, want ErrNotFound", err)
			}
			if err := s.Delete(ctx, "missing/key"); err != nil {
				t.Fatalf("Delete missing: %v", err)
			}
			objects := map[string]string{
				"manifest/0000000000000001": "first manifest",
				"shards/0/base-e1-abc":      strings.Repeat("base zero ", 100),
				"shards/1/base-e4-def":      "base one",
				"shards/1/ovl-123":          "overlay one",
			}
			for k, v := range objects {
				if err := s.Put(ctx, k, []byte(v)); err != nil {
					t.Fatalf("Put %s: %v", k, err)
				}
			}
			for k, v := range objects {
				got, err := s.Get(ctx, k)
				if err != nil {
					t.Fatalf("Get %s: %v", k, err)
				}
				if string(got) != v {
					t.Fatalf("Get %s = %q, want %q", k, got, v)
				}
			}
			// Overwrite replaces, not appends.
			if err := s.Put(ctx, "shards/1/ovl-123", []byte("v2")); err != nil {
				t.Fatalf("overwrite: %v", err)
			}
			if got, _ := s.Get(ctx, "shards/1/ovl-123"); string(got) != "v2" {
				t.Fatalf("after overwrite: %q, want %q", got, "v2")
			}
			keys, err := s.List(ctx, "shards/1/")
			if err != nil {
				t.Fatalf("List: %v", err)
			}
			want := []string{"shards/1/base-e4-def", "shards/1/ovl-123"}
			if !reflect.DeepEqual(keys, want) {
				t.Fatalf("List shards/1/ = %v, want %v", keys, want)
			}
			all, err := s.List(ctx, "")
			if err != nil {
				t.Fatalf("List all: %v", err)
			}
			if len(all) != len(objects) {
				t.Fatalf("List all = %v, want %d keys", all, len(objects))
			}
			for i := 1; i < len(all); i++ {
				if all[i-1] >= all[i] {
					t.Fatalf("List not sorted: %v", all)
				}
			}
			if err := s.Delete(ctx, "shards/1/ovl-123"); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			if _, err := s.Get(ctx, "shards/1/ovl-123"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Get deleted: err = %v, want ErrNotFound", err)
			}
			// Invalid keys are rejected before they reach any backend state.
			for _, bad := range []string{"", "/abs", "a//b", "../escape", "a/./b", "sp ace", strings.Repeat("k", 600)} {
				if err := s.Put(ctx, bad, []byte("x")); err == nil {
					t.Fatalf("Put %q: accepted invalid key", bad)
				}
				if _, err := s.Get(ctx, bad); err == nil || errors.Is(err, ErrNotFound) {
					t.Fatalf("Get %q: err = %v, want invalid-key error", bad, err)
				}
			}
		})
	}
}

func TestValidKey(t *testing.T) {
	for key, want := range map[string]bool{
		"manifest/0000000000000042": true,
		"shards/12/base-e9-ab_c.2":  true,
		"a":                         true,
		"":                          false,
		"/a":                        false,
		"a/":                        false,
		"a//b":                      false,
		"..":                        false,
		"a/../b":                    false,
		"a/./b":                     false,
		"café":                      false,
		"a b":                       false,
		strings.Repeat("x", 513):    false,
	} {
		if got := ValidKey(key); got != want {
			t.Errorf("ValidKey(%q) = %v, want %v", key, got, want)
		}
	}
}

// TestDirStoreNoTempLeftovers: a write that fails mid-object must leave
// neither the target object nor a stray temp file.
func TestDirStoreNoTempLeftovers(t *testing.T) {
	ctx := context.Background()
	root := filepath.Join(t.TempDir(), "store")
	s, err := NewDirStore(root)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("writer died")
	failAfter := func(n int) func(io.Writer) error {
		return func(w io.Writer) error {
			if _, err := w.Write([]byte(strings.Repeat("x", n))); err != nil {
				return err
			}
			return boom
		}
	}
	path := s.path("shards/0/base")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(path, failAfter(10)); !errors.Is(err, boom) {
		t.Fatalf("write failing mid-object: err = %v, want %v", err, boom)
	}
	if _, err := s.Get(ctx, "shards/0/base"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("object exists after failed write: err = %v", err)
	}
	var stray []string
	filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			stray = append(stray, path)
		}
		return nil
	})
	if len(stray) != 0 {
		t.Fatalf("stray files after failed write: %v", stray)
	}
	// A failed overwrite must leave the previous object intact.
	if err := s.Put(ctx, "shards/0/base", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := writeFileAtomic(path, failAfter(1)); !errors.Is(err, boom) {
		t.Fatalf("overwrite: err = %v, want %v", err, boom)
	}
	got, err := s.Get(ctx, "shards/0/base")
	if err != nil || string(got) != "v1" {
		t.Fatalf("after failed overwrite: %q, %v; want intact v1", got, err)
	}
}

// TestDirStoreRefusesOversizedObject: an object past maxObjectBytes is
// refused with an error instead of being read into memory (a sparse file
// stands in for it, so the test writes no gigabyte).
func TestDirStoreRefusesOversizedObject(t *testing.T) {
	ctx := context.Background()
	s, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(ctx, "shards/0/base", []byte("small")); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(s.path("shards/0/base"), maxObjectBytes+1); err != nil {
		t.Fatal(err)
	}
	b, err := s.Get(ctx, "shards/0/base")
	if err == nil || errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("Get of an oversized object: %d bytes, err = %v; want a size error", len(b), err)
	}
}

func TestFaultStoreInjection(t *testing.T) {
	ctx := context.Background()
	mem := NewMemStore()
	fs := NewFaultStore(mem)

	// Torn put: error surfaces, inner store holds a corrupted prefix.
	fs.FailPut(2, true)
	if err := fs.Put(ctx, "k1", []byte("object one")); err != nil {
		t.Fatalf("put 1: %v", err)
	}
	err := fs.Put(ctx, "k2", []byte("object two"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("put 2: err = %v, want ErrInjected", err)
	}
	torn, err := mem.Get(ctx, "k2")
	if err != nil {
		t.Fatalf("torn object missing: %v", err)
	}
	if string(torn) == "object two" || len(torn) != 5 {
		t.Fatalf("torn object = %q (len %d), want corrupted 5-byte prefix", torn, len(torn))
	}
	// Error mode: nothing reaches the inner store.
	fs.FailPut(1, false)
	if err := fs.Put(ctx, "k3", []byte("object three")); !errors.Is(err, ErrInjected) {
		t.Fatalf("put 3: err = %v, want ErrInjected", err)
	}
	if _, err := mem.Get(ctx, "k3"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("error-mode put leaked to inner store")
	}
	// An armed fault fires once; the next put goes through.
	if err := fs.Put(ctx, "k4", []byte("object four")); err != nil {
		t.Fatalf("put 4: %v", err)
	}

	fs.FailGet(1)
	if _, err := fs.Get(ctx, "k1"); !errors.Is(err, ErrInjected) {
		t.Fatalf("get: err = %v, want ErrInjected", err)
	}
	fs.FailDelete(1)
	if err := fs.Delete(ctx, "k1"); !errors.Is(err, ErrInjected) {
		t.Fatalf("delete: err = %v, want ErrInjected", err)
	}

	puts, gets, _, deletes := fs.Counts()
	if puts != 4 || gets != 1 || deletes != 1 {
		t.Fatalf("counts = %d puts, %d gets, %d deletes", puts, gets, deletes)
	}
	wantKeys := []string{"k1", "k2", "k3", "k4"}
	if got := fs.PutKeys(); !reflect.DeepEqual(got, wantKeys) {
		t.Fatalf("PutKeys = %v, want %v", got, wantKeys)
	}
	fs.ResetCounters()
	if puts, _, _, _ := fs.Counts(); puts != 0 || len(fs.PutKeys()) != 0 {
		t.Fatalf("counters survived reset")
	}
}

func TestMemStoreCloneAndCorrupt(t *testing.T) {
	ctx := context.Background()
	s := NewMemStore()
	if err := s.Put(ctx, "a", []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	if err := s.Put(ctx, "b", []byte("later")); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Fatalf("clone sees writes after Clone: %d objects", c.Len())
	}
	if !s.Corrupt("a", 4) {
		t.Fatal("Corrupt: key not found")
	}
	got, _ := s.Get(ctx, "a")
	if len(got) != 4 || string(got) == "hell" {
		t.Fatalf("Corrupt left %q, want 4 mangled bytes", got)
	}
	if cg, _ := c.Get(ctx, "a"); string(cg) != "hello world" {
		t.Fatalf("corruption leaked into clone: %q", cg)
	}
	if s.Corrupt("missing", 1) {
		t.Fatal("Corrupt reported success for missing key")
	}
}

// TestOpenSpec: a -store spec opens a directory store (creating missing
// parents); the empty spec and a URL are refused, and a refused URL
// creates nothing.
func TestOpenSpec(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sub", "store")
	if _, err := NewDirStore(dir); err != nil {
		t.Fatalf("NewDirStore(dir): %v", err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("NewDirStore(dir) left no directory: %v", err)
	}
	if _, err := NewDirStore(""); err == nil {
		t.Fatal("NewDirStore(\"\") accepted")
	}
	cwd := t.TempDir()
	t.Chdir(cwd)
	if _, err := NewDirStore("http://objects:9100/ced"); err == nil || !strings.Contains(err.Error(), "local directory") {
		t.Fatalf("NewDirStore(url): err = %v, want a local-directory error", err)
	}
	if entries, err := os.ReadDir(cwd); err != nil || len(entries) != 0 {
		t.Fatalf("refused URL created %v (%v)", entries, err)
	}
}

// Ensure example keys used across the snapshot layer stay valid.
func TestSnapshotKeyShapes(t *testing.T) {
	for i := 0; i < 4; i++ {
		for _, k := range []string{
			fmt.Sprintf("manifest/%016d", i),
			fmt.Sprintf("shards/%d/base-e%d-%012x", i, i*7, i*991),
			fmt.Sprintf("shards/%d/ovl-%012x", i, i*881),
		} {
			if !ValidKey(k) {
				t.Errorf("snapshot key %q invalid", k)
			}
		}
	}
}
