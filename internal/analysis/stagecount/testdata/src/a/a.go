// Package a exercises the stagecount analyzer: rejection tallies must be
// merged, never silently dropped.
package a

// StageCounts mirrors ced/internal/core's per-stage rejection counters.
type StageCounts struct {
	Length, Anchor, Interval, Exact int
}

// Add merges o into c.
func (c *StageCounts) Add(o StageCounts) {
	c.Length += o.Length
	c.Anchor += o.Anchor
	c.Interval += o.Interval
	c.Exact += o.Exact
}

// Stats mirrors search.Stats.
type Stats struct {
	Computations int
	Rejections   StageCounts
}

// Answer mirrors search.Answer: the hits plus the work spent.
type Answer struct {
	Hits []string
	Stats
}

// Query is a stand-in for the search entry points.
func Query(q string, k int) (Answer, error) {
	return Answer{}, nil
}

// merged is the sanctioned idiom, mirroring the shard merge.
func merged(q string, stats *Stats) []string {
	ans, err := Query(q, 5)
	if err != nil {
		return nil
	}
	stats.Computations += ans.Computations
	stats.Rejections.Add(ans.Rejections)
	return ans.Hits
}

// dropped throws the whole answer away, tally included.
func dropped(q string) {
	Query(q, 5) // want `call result containing StageCounts dropped`
}

// blankTally discards a lone StageCounts value.
func blankTally(q string) []string {
	ans, _ := Query(q, 5)
	_ = ans.Rejections // want `StageCounts discarded with _`
	return ans.Hits
}

// waived documents a deliberate discard (e.g. a benchmark warm-up query).
func waived(q string) {
	Query(q, 5) //ced:stagecount-ok: warm-up query, answer unused.
}

// BatchResult mirrors core.BoundedResult: one candidate of a batch ladder
// call, carrying its own rejection tally.
type BatchResult struct {
	Distance   float64
	Rejections StageCounts
}

// KNearestBatch is a stand-in for the batch ladder entry points
// (core.ComputeBoundedBatch and friends).
func KNearestBatch(q string, cands []string) []BatchResult {
	return nil
}

// lossyBatchMerge keeps each candidate's distance but blanks its tally:
// the batch's rejections silently vanish from the shard totals.
func lossyBatchMerge(q string, cands []string) []float64 {
	out := make([]float64, len(cands))
	for i, r := range KNearestBatch(q, cands) {
		out[i] = r.Distance
		_ = r.Rejections // want `StageCounts discarded with _`
	}
	return out
}

// droppedBatch throws the whole batch away — per-candidate tallies
// included, which the carrier rule catches.
func droppedBatch(q string, cands []string) {
	KNearestBatch(q, cands) // want `call result containing StageCounts dropped`
}

// batchMerged is the sanctioned batch idiom: every candidate's tally is
// folded into the caller's stats, so the aggregate equals what the
// per-candidate ladder would have reported.
func batchMerged(q string, cands []string, stats *Stats) []float64 {
	out := make([]float64, len(cands))
	for i, r := range KNearestBatch(q, cands) {
		out[i] = r.Distance
		stats.Rejections.Add(r.Rejections)
	}
	return out
}

// batchWaived documents a deliberate batch discard (e.g. a benchmark
// warm-up call).
func batchWaived(q string, cands []string) {
	KNearestBatch(q, cands) //ced:stagecount-ok: warm-up call, values unused.
}
