package blob

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// MemStore is an in-memory Store for tests and the crash-restart
// differential suite. Put is atomic (the object appears all at once), and
// Clone snapshots the whole store — the suite "kills" a save mid-flight by
// cloning the store at the fault point and restarting an engine on the
// clone.
type MemStore struct {
	mu      sync.RWMutex
	objects map[string][]byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{objects: make(map[string][]byte)}
}

func (s *MemStore) Put(ctx context.Context, key string, b []byte) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	b = bytes.Clone(b)
	s.mu.Lock()
	s.objects[key] = b
	s.mu.Unlock()
	return nil
}

func (s *MemStore) Get(ctx context.Context, key string) ([]byte, error) {
	if err := checkKey(key); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	b, ok := s.objects[key]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("blob: get %s: %w", key, ErrNotFound)
	}
	return bytes.Clone(b), nil
}

func (s *MemStore) List(ctx context.Context, prefix string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	keys := make([]string, 0, len(s.objects))
	for k := range s.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys, nil
}

func (s *MemStore) Delete(ctx context.Context, key string) error {
	if err := checkKey(key); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.objects, key)
	s.mu.Unlock()
	return nil
}

// Clone returns a deep copy of the store's current contents — the state a
// restarted process would observe if the writer died right now.
func (s *MemStore) Clone() *MemStore {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := NewMemStore()
	for k, v := range s.objects {
		c.objects[k] = append([]byte(nil), v...)
	}
	return c
}

// Corrupt truncates the object at key to n bytes and flips the last
// remaining byte — a torn, garbage tail — so loaders can be proven to fail
// closed. It reports whether the key existed.
func (s *MemStore) Corrupt(key string, n int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.objects[key]
	if !ok {
		return false
	}
	if n > len(b) {
		n = len(b)
	}
	b = append([]byte(nil), b[:n]...)
	if len(b) > 0 {
		b[len(b)-1] ^= 0xff
	}
	s.objects[key] = b
	return true
}

// Len reports the number of stored objects.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// Size reports the byte length of the object at key, or -1 if absent.
func (s *MemStore) Size(key string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.objects[key]
	if !ok {
		return -1
	}
	return len(b)
}
