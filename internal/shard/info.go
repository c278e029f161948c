package shard

import "sort"

// ShardInfo is one shard's snapshot for the health endpoints.
type ShardInfo struct {
	// Size is the shard's live element count (base − tombstones + delta).
	Size int `json:"size"`
	// Base is the frozen base index size, deleted elements included.
	Base int `json:"base"`
	// Delta is the number of live entries awaiting compaction.
	Delta int `json:"delta"`
	// Tombstones is the number of deleted base elements awaiting
	// compaction.
	Tombstones int `json:"tombstones"`
	// Epoch counts the compaction swaps this shard has gone through; it
	// only ever increases.
	Epoch uint64 `json:"epoch"`
}

// Info is the set-wide mutation and compaction view surfaced by /healthz.
type Info struct {
	// Shards is the partition count.
	Shards int `json:"shards"`
	// Size is the live element count across all shards.
	Size int `json:"size"`
	// Adds, Deletes and Compactions are lifetime counters.
	Adds        uint64 `json:"adds"`
	Deletes     uint64 `json:"deletes"`
	Compactions uint64 `json:"compactions"`
	// Detail lists the per-shard breakdown, in shard order.
	Detail []ShardInfo `json:"detail"`
}

// Info returns the current mutation/compaction snapshot.
func (s *Set) Info() Info {
	info := Info{
		Shards:      len(s.shards),
		Adds:        s.adds.Load(),
		Deletes:     s.deletes.Load(),
		Compactions: s.compactions.Load(),
		Detail:      make([]ShardInfo, len(s.shards)),
	}
	for i, sh := range s.shards {
		st := sh.state.Load()
		info.Detail[i] = ShardInfo{
			Size:       st.live(),
			Base:       len(st.baseIDs),
			Delta:      len(st.delta),
			Tombstones: st.tombstones(),
			Epoch:      sh.epoch.Load(),
		}
		info.Size += info.Detail[i].Size
	}
	return info
}

// Epoch returns shard i's compaction epoch (testing hook: epochs must be
// monotone).
func (s *Set) Epoch(i int) uint64 { return s.shards[i].epoch.Load() }

// Elements returns every live element sorted by ID — the full-content dump
// the remote transport uses to re-sync a stale replica from a healthy one
// (and a convenient audit hook for differential tests). Each shard is read
// from one atomic snapshot; quiesce mutators for a cross-shard-consistent
// view.
func (s *Set) Elements() []Element {
	var out []Element
	for _, sh := range s.shards {
		st := sh.state.Load()
		for pos, id := range st.baseIDs {
			if st.tombs.Has(pos) {
				continue
			}
			e := Element{ID: id, Value: st.baseStrs[pos]}
			if st.baseLabels != nil {
				e.Label = st.baseLabels[pos]
			}
			out = append(out, e)
		}
		for _, e := range st.delta {
			out = append(out, Element{ID: e.id, Value: e.value, Label: e.label})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}
