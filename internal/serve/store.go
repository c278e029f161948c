package serve

import (
	"context"
	"fmt"
	"time"

	"ced/internal/shard"
)

// DefaultSnapshotRetry is the cool-down after a failed background
// snapshot before mutations may trigger another attempt. Without it a
// dead store would be hammered once per mutation.
const DefaultSnapshotRetry = 10 * time.Second

// saveTimeout bounds one background snapshot end to end; a store that
// hangs past it fails the save (and starts the retry cool-down) instead
// of pinning the single-flight slot forever.
const saveTimeout = 5 * time.Minute

// snapStatus is the immutable last-snapshot record behind the engine's
// atomic status pointer; /healthz renders it. Every field is frozen at
// publication.
//
//ced:frozen
type snapStatus struct {
	seq      uint64 // manifest sequence of the last durable snapshot
	unixNano int64  // when it became durable (or was loaded)
	size     int    // live corpus size it captured
	loaded   bool   // true when the record comes from a cold-start load
	lastErr  string // most recent save failure ("" when the last save won)
}

// SnapshotInfo is the snapshot-health block /healthz reports.
type SnapshotInfo struct {
	// Configured reports whether a blob store is attached at all.
	Configured bool `json:"configured"`
	// AutoEvery is the mutation threshold for background snapshots
	// (0 = manual only).
	AutoEvery int `json:"auto_every,omitempty"`
	// LastSeq is the manifest sequence of the newest durable snapshot this
	// engine saved or cold-started from (0 = none yet).
	LastSeq uint64 `json:"last_seq"`
	// AgeSeconds is how long ago that snapshot became durable here.
	AgeSeconds float64 `json:"age_seconds,omitempty"`
	// Size is the live corpus size it captured.
	Size int `json:"size,omitempty"`
	// Loaded marks LastSeq as a cold-start load rather than a save.
	Loaded bool `json:"loaded,omitempty"`
	// LastError is the most recent snapshot failure, cleared by the next
	// success.
	LastError string `json:"last_error,omitempty"`
	// Saves and Failures count completed store snapshots over the engine's
	// lifetime.
	Saves    uint64 `json:"saves"`
	Failures uint64 `json:"failures"`
	// PendingMutations counts mutations since the last snapshot attempt.
	PendingMutations uint64 `json:"pending_mutations"`
}

// StoreConfigured reports whether the engine has a blob store attached.
func (e *Engine) StoreConfigured() bool { return e.saver != nil }

// SaveToStore captures the live set and publishes one consistent
// incremental snapshot into the configured store (objects first, manifest
// last — see internal/shard). Concurrent calls, and LoadFromStore, take
// turns on the engine's snapshot lock.
func (e *Engine) SaveToStore(ctx context.Context) (shard.SaveStats, error) {
	e.countRequest()
	if e.saver == nil {
		return shard.SaveStats{}, fmt.Errorf("serve: no blob store configured (cedserve -store)")
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	e.mutations.Store(0)
	set := e.set.Load()
	stats, err := e.saver.Save(ctx, set)
	if err != nil {
		e.saveFail.Add(1)
		e.publishSnapStatus(snapStatus{
			seq:      e.saver.LastSeq(),
			unixNano: time.Now().UnixNano(),
			lastErr:  err.Error(),
		})
		return stats, fmt.Errorf("serve: %w", err)
	}
	e.saveOK.Add(1)
	e.publishSnapStatus(snapStatus{
		seq:      stats.Seq,
		unixNano: time.Now().UnixNano(),
		size:     set.Size(),
	})
	return stats, nil
}

// LoadFromStore replaces the live corpus with the newest loadable
// snapshot in the configured store — the restartless cold-start path —
// and primes the saver so the next save is incremental. The swap is
// atomic: queries in flight finish against the old set, queries issued
// after LoadFromStore returns see the new one, and no query ever blocks.
// Mutations are serialised against the swap (an Add acknowledged against
// the outgoing set would be silently lost), and a failed load leaves the
// live set untouched. The snapshot's metric and index algorithm must
// match the engine's. Saves wait for the load: one that ran meanwhile
// could delete the objects being read, or publish a manifest newer than
// the one attached.
func (e *Engine) LoadFromStore(ctx context.Context) (int, error) {
	e.countRequest()
	if e.saver == nil {
		return 0, fmt.Errorf("serve: no blob store configured (cedserve -store)")
	}
	e.snapMu.Lock()
	defer e.snapMu.Unlock()
	set, man, err := shard.LoadFromStore(ctx, e.store, e.setCfg)
	if err != nil {
		return 0, fmt.Errorf("serve: %w", err)
	}
	e.mutateMu.Lock()
	e.set.Store(set)
	e.mutateMu.Unlock()
	e.saver.Attach(man)
	e.publishSnapStatus(snapStatus{
		seq:      man.Seq,
		unixNano: time.Now().UnixNano(),
		size:     set.Size(),
		loaded:   true,
	})
	return set.Size(), nil
}

// maybeSnapshot runs after every acknowledged mutation: once the count
// since the last snapshot reaches the threshold it starts one background
// save — single-flight, and muted for the retry cool-down after a
// failure. Queries and further mutations never wait on it.
func (e *Engine) maybeSnapshot() {
	if e.saver == nil || e.snapshotEvery <= 0 {
		return
	}
	if e.mutations.Add(1) < uint64(e.snapshotEvery) {
		return
	}
	if time.Now().UnixNano() < e.snapRetryAt.Load() {
		return
	}
	if !e.snapSaving.CompareAndSwap(false, true) {
		return
	}
	// Counter reset races concurrent mutations; losing a handful of
	// increments only delays the next snapshot by that many mutations.
	e.mutations.Store(0)
	e.saveWG.Add(1)
	go func() {
		defer e.saveWG.Done()
		defer e.snapSaving.Store(false)
		ctx, cancel := context.WithTimeout(context.Background(), saveTimeout)
		defer cancel()
		if _, err := e.SaveToStore(ctx); err != nil {
			e.snapRetryAt.Store(time.Now().Add(e.snapshotRetry).UnixNano())
		}
	}()
}

// WaitSnapshots blocks until every in-flight background snapshot has
// finished (shutdown and test hook). Quiesce mutators first, as with
// shard.Set.Wait.
func (e *Engine) WaitSnapshots() { e.saveWG.Wait() }

// publishSnapStatus atomically swaps in a freshly built status record.
//
//ced:publish
func (e *Engine) publishSnapStatus(st snapStatus) {
	e.snapStatus.Store(&st)
}

// snapshotInfo renders the current snapshot health for /healthz.
func (e *Engine) snapshotInfo() SnapshotInfo {
	si := SnapshotInfo{
		Configured:       e.saver != nil,
		AutoEvery:        e.snapshotEvery,
		Saves:            e.saveOK.Load(),
		Failures:         e.saveFail.Load(),
		PendingMutations: e.mutations.Load(),
	}
	if st := e.snapStatus.Load(); st != nil {
		si.LastSeq = st.seq
		si.AgeSeconds = time.Since(time.Unix(0, st.unixNano)).Seconds()
		si.Size = st.size
		si.Loaded = st.loaded
		si.LastError = st.lastErr
	}
	return si
}
