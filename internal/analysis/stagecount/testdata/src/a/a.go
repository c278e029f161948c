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

// Answer mirrors search.Answer: the hits plus the work spent. The tally
// sits two levels down (Answer.Stats.Rejections), which is why dropping an
// Answer needs the transitive carrier rule.
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

// dropped throws the whole answer away, tally included: the transitive
// carrier rule finds the StageCounts inside the Answer.
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
