package blob

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrInjected marks a failure manufactured by a FaultStore, so suites can
// tell an injected crash from a real bug in the code under test.
var ErrInjected = errors.New("blob: injected fault")

// FaultStore wraps a Store with deterministic fault injection and op
// accounting, in the spirit of internal/remote/clustertest: the
// crash-restart differential arms "fail the Nth store operation from
// here", runs a save into the wall, and restarts an engine on whatever
// the inner store holds at that instant. Torn mode writes a truncated,
// bit-flipped prefix of the object before erroring — the worst a
// non-atomic backend can leave behind.
//
// Counters double as the incremental-save proof: a snapshot of an
// unchanged corpus must show zero base-object uploads.
type FaultStore struct {
	inner Store

	mu      sync.Mutex
	puts    int
	gets    int
	lists   int
	deletes int
	putKeys []string

	failPutIn    int // fail the Nth Put from arming; 0 = disarmed
	tear         bool
	failGetIn    int
	failDeleteIn int
}

// NewFaultStore wraps inner with all faults disarmed.
func NewFaultStore(inner Store) *FaultStore {
	return &FaultStore{inner: inner}
}

// FailPut arms the store so the nth subsequent Put (1-based) fails. With
// tear set, roughly half the object is written through to the inner store
// with its last byte flipped before the error — a torn object under the
// key the writer was publishing.
func (s *FaultStore) FailPut(n int, tear bool) {
	s.mu.Lock()
	s.failPutIn, s.tear = n, tear
	s.mu.Unlock()
}

// FailGet arms the store so the nth subsequent Get fails.
func (s *FaultStore) FailGet(n int) {
	s.mu.Lock()
	s.failGetIn = n
	s.mu.Unlock()
}

// FailDelete arms the store so the nth subsequent Delete fails.
func (s *FaultStore) FailDelete(n int) {
	s.mu.Lock()
	s.failDeleteIn = n
	s.mu.Unlock()
}

// Counts reports how many Put/Get/List/Delete calls reached the store
// since construction or the last ResetCounters, including failed ones.
func (s *FaultStore) Counts() (puts, gets, lists, deletes int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.puts, s.gets, s.lists, s.deletes
}

// PutKeys returns the keys of every Put attempted since the last reset,
// in call order — the assertion surface for "only changed shards were
// re-uploaded".
func (s *FaultStore) PutKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.putKeys...)
}

// ResetCounters zeroes the op counters and recorded Put keys; armed
// faults are left as they are.
func (s *FaultStore) ResetCounters() {
	s.mu.Lock()
	s.puts, s.gets, s.lists, s.deletes = 0, 0, 0, 0
	s.putKeys = nil
	s.mu.Unlock()
}

func (s *FaultStore) Put(ctx context.Context, key string, b []byte) error {
	s.mu.Lock()
	s.puts++
	s.putKeys = append(s.putKeys, key)
	inject := false
	tear := false
	if s.failPutIn > 0 {
		s.failPutIn--
		if s.failPutIn == 0 {
			inject, tear = true, s.tear
		}
	}
	s.mu.Unlock()
	if !inject {
		return s.inner.Put(ctx, key, b)
	}
	if tear {
		torn := append([]byte(nil), b[:(len(b)+1)/2]...)
		if len(torn) > 0 {
			torn[len(torn)-1] ^= 0xff
		}
		if err := s.inner.Put(ctx, key, torn); err != nil {
			return err
		}
	}
	return fmt.Errorf("blob: put %s: %w", key, ErrInjected)
}

func (s *FaultStore) Get(ctx context.Context, key string) ([]byte, error) {
	s.mu.Lock()
	s.gets++
	inject := false
	if s.failGetIn > 0 {
		s.failGetIn--
		inject = s.failGetIn == 0
	}
	s.mu.Unlock()
	if inject {
		return nil, fmt.Errorf("blob: get %s: %w", key, ErrInjected)
	}
	return s.inner.Get(ctx, key)
}

func (s *FaultStore) List(ctx context.Context, prefix string) ([]string, error) {
	s.mu.Lock()
	s.lists++
	s.mu.Unlock()
	return s.inner.List(ctx, prefix)
}

func (s *FaultStore) Delete(ctx context.Context, key string) error {
	s.mu.Lock()
	s.deletes++
	inject := false
	if s.failDeleteIn > 0 {
		s.failDeleteIn--
		inject = s.failDeleteIn == 0
	}
	s.mu.Unlock()
	if inject {
		return fmt.Errorf("blob: delete %s: %w", key, ErrInjected)
	}
	return s.inner.Delete(ctx, key)
}
