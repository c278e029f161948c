package clustertest

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"ced/internal/dataset"
	"ced/internal/remote"
	"ced/internal/search"
)

// nodeHealth extracts the replica-health rows living on the given node URL.
func nodeHealth(info remote.ClusterInfo, nodeURL string) []remote.ReplicaHealth {
	var out []remote.ReplicaHealth
	for _, rh := range info.ReplicaHealth {
		if rh.Node == nodeURL {
			out = append(out, rh)
		}
	}
	return out
}

// TestClusterFaultInjection drives one replica node through every failure
// mode — 5xx responses, hanging past the client deadline, cutting the
// connection mid-stream, dropping dead — and asserts the cluster's whole
// story: answers stay pinned to the oracle throughout (retry/hedge/failover
// hide the fault), replicated writes land and eject the faulty node as
// stale, /healthz reports the ejection, and after healing a probe re-syncs
// and readmits the node — verified by failing over to it and pinning its
// answers again.
func TestClusterFaultInjection(t *testing.T) {
	d := dataset.Spanish(120, 7)
	labels := make([]int, len(d.Strings))
	for i := range labels {
		labels[i] = i % 3
	}
	queries := []string{"casa", "arbol", d.Strings[10], d.Strings[119] + "s"}

	cases := []struct {
		name string
		mode FaultMode
	}{
		{"error500", Fault500},
		{"hang", FaultHang},
		{"cut-mid-stream", FaultCut},
		{"down", FaultDown},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Start(t, Config{
				Nodes: 2, Shards: 2, Replicas: 2,
				Timeout:    300 * time.Millisecond,
				HedgeAfter: 10 * time.Millisecond,
			}, d.Strings, labels)
			o := NewOracle(c.Metric, d.Strings, labels)
			ctx := context.Background()

			for _, q := range queries {
				assertClusterKNN(t, o, c, q, 5, "baseline")
			}

			c.Nodes[1].SetFault(tc.mode)

			// Queries stay exact while one replica of every shard misbehaves.
			for round := 0; round < 3; round++ {
				for _, q := range queries {
					assertClusterKNN(t, o, c, q, 5, "faulted-read")
				}
			}
			if tc.mode == FaultHang {
				if hedged := c.Coord.Info().Hedged; hedged == 0 {
					t.Fatal("hanging replica never triggered a hedged request")
				}
			}
			if c.Nodes[1].Faulted() == 0 {
				t.Fatal("fault layer never saw a request — the test exercised nothing")
			}

			// Replicated writes succeed through the surviving replicas and
			// eject the faulty node as stale (it missed them).
			var added []uint64
			for i := 0; i < 4; i++ {
				v := fmt.Sprintf("herida%02d", i)
				id, err := c.Coord.Add(ctx, v, i%3)
				if err != nil {
					t.Fatalf("add under fault: %v", err)
				}
				o.Add(id, v, i%3)
				added = append(added, id)
			}
			// Deletes aimed at both ID ranges, so every logical shard takes
			// a replicated write and the faulty node misses one per shard
			// (IDs 5 and 65 fall in shard 0's and shard 1's range: width
			// ceil(120/2) = 60).
			for _, victim := range []uint64{5, 65} {
				if deleted, err := c.Coord.Delete(ctx, victim); err != nil || !deleted {
					t.Fatalf("delete %d under fault: applied=%v err=%v", victim, deleted, err)
				}
				o.Delete(victim)
			}

			info := c.Coord.Info()
			faulty := nodeHealth(info, c.Nodes[1].Srv.URL)
			if len(faulty) != 2 {
				t.Fatalf("%d replica rows for the faulty node, want 2", len(faulty))
			}
			for _, rh := range faulty {
				if rh.Healthy || !rh.Stale || rh.Ejections == 0 {
					t.Fatalf("faulty replica not ejected+stale after missed writes: %+v", rh)
				}
			}
			// Both logical shards still have their node-0 replica, so the
			// cluster as a whole must still report healthy.
			if !info.Healthy {
				t.Fatalf("cluster lost quorum with one faulty node: %+v", info.ReplicaHealth)
			}

			// Post-mutation answers remain pinned with half the replicas gone.
			for _, q := range append(queries, "herida00", "herida03") {
				assertClusterKNN(t, o, c, q, 5, "faulted-mutated")
				assertClusterClassify(t, o, c, q, "faulted-mutated")
			}

			// Heal and probe: the stale replicas re-sync from their healthy
			// peers and re-enter the rotation.
			c.Heal()
			c.Coord.Probe(ctx)
			info = c.Coord.Info()
			if !info.Healthy {
				t.Fatalf("cluster unhealthy after heal+probe: %+v", info.ReplicaHealth)
			}
			for _, rh := range nodeHealth(info, c.Nodes[1].Srv.URL) {
				if !rh.Healthy || rh.Stale || rh.Readmissions == 0 {
					t.Fatalf("healed replica not readmitted: %+v", rh)
				}
			}

			// Prove the readmitted replicas really carry the post-fault
			// corpus: fail the other node over and pin their answers.
			c.Nodes[0].SetFault(Fault500)
			for _, q := range append(queries, "herida01") {
				assertClusterKNN(t, o, c, q, 5, "failed-over")
			}
			if deleted, err := c.Coord.Delete(ctx, added[0]); err != nil || !deleted {
				t.Fatalf("delete after failover: applied=%v err=%v", deleted, err)
			}
			o.Delete(added[0])
			for _, q := range queries {
				assertClusterKNN(t, o, c, q, 5, "failed-over-mutated")
			}
			c.Heal()
			c.Coord.Probe(ctx)
			if info := c.Coord.Info(); !info.Healthy {
				t.Fatalf("cluster unhealthy after final heal: %+v", info.ReplicaHealth)
			}
		})
	}
}

// TestClusterCrashRestartReadmission covers the recovery path the healed
// faults above cannot: a node that died and came back EMPTY. Its replicas
// were ejected for read failures — never marked stale, since no write
// missed them — yet readmitting without a re-sync would put empty slots
// back in the rotation. The probe must recognise the 404 "slot not
// seeded" liveness answer as lost state, re-sync from a healthy peer and
// only then readmit. Every re-sync reseeds one slot from its peer's dump,
// so each crash of node 1 (one replica of each of the two shards) adds
// exactly two to the coordinator's re-sync count, and after each one the
// restarted node must answer the oracle on its own.
func TestClusterCrashRestartReadmission(t *testing.T) {
	d := dataset.Spanish(120, 11)
	labels := make([]int, len(d.Strings))
	for i := range labels {
		labels[i] = i % 3
	}
	queries := []string{"casa", d.Strings[7], d.Strings[113] + "s"}
	c := Start(t, Config{
		Nodes: 2, Shards: 2, Replicas: 2,
		Timeout: 300 * time.Millisecond,
	}, d.Strings, labels)
	o := NewOracle(c.Metric, d.Strings, labels)
	ctx := context.Background()

	for crash, wantSeeds := range []uint64{2, 4} {
		phase := fmt.Sprintf("crash %d", crash+1)

		// Read-only traffic against a dead node ejects its replicas without
		// marking them stale (no write ever missed them).
		c.Heal()
		c.Nodes[1].SetFault(FaultDown)
		for round := 0; round < 4; round++ {
			for _, q := range queries {
				assertClusterKNN(t, o, c, q, 5, phase+" node-down")
			}
		}
		for _, rh := range nodeHealth(c.Coord.Info(), c.Nodes[1].Srv.URL) {
			if rh.Healthy || rh.Stale || rh.Ejections == 0 {
				t.Fatalf("%s: dead node's replica should be ejected but clean: %+v", phase, rh)
			}
		}

		// The process comes back at the same address with nothing in it.
		c.Heal()
		c.Nodes[1].Restart(t)
		c.Coord.Probe(ctx)

		info := c.Coord.Info()
		if !info.Healthy {
			t.Fatalf("%s: cluster unhealthy after restart+probe: %+v", phase, info.ReplicaHealth)
		}
		for _, rh := range nodeHealth(info, c.Nodes[1].Srv.URL) {
			if !rh.Healthy || rh.Stale || rh.Readmissions == 0 {
				t.Fatalf("%s: restarted replica not re-synced and readmitted: %+v", phase, rh)
			}
		}
		if info.ResyncSeeds != wantSeeds {
			t.Fatalf("%s: %d re-syncs, want %d (one dump reseed per replica on the restarted node)",
				phase, info.ResyncSeeds, wantSeeds)
		}

		// Prove the readmitted slots really carry the corpus again: kill
		// the donor node and pin answers served by the restarted one alone.
		c.Nodes[0].SetFault(Fault500)
		for _, q := range queries {
			assertClusterKNN(t, o, c, q, 5, phase+" restarted-serving")
			assertClusterClassify(t, o, c, q, phase+" restarted-serving")
		}
	}
}

// TestClusterFailedResyncShowsWhy: a restarted replica whose donor cannot
// dump stays stale, and /healthz says why: the failed re-sync is the
// replica's last error. Once the donor heals, the next probe re-syncs and
// readmits it.
func TestClusterFailedResyncShowsWhy(t *testing.T) {
	d := dataset.Spanish(60, 11)
	c := Start(t, Config{
		Nodes: 2, Shards: 2, Replicas: 2,
		Timeout: 300 * time.Millisecond,
	}, d.Strings, nil)
	o := NewOracle(c.Metric, d.Strings, nil)
	ctx := context.Background()

	c.Nodes[1].SetFault(FaultDown)
	for round := 0; round < 4; round++ {
		for _, q := range []string{"casa", d.Strings[7], d.Strings[53] + "s"} {
			assertClusterKNN(t, o, c, q, 5, "node-down")
		}
	}
	c.Heal()
	c.Nodes[1].Restart(t)
	c.Nodes[0].SetFault(Fault500)
	c.Coord.Probe(ctx)
	for _, rh := range nodeHealth(c.Coord.Info(), c.Nodes[1].Srv.URL) {
		if !rh.Stale || !strings.Contains(rh.LastError, "re-sync dump") || !strings.Contains(rh.LastError, "injected fault") {
			t.Fatalf("replica whose donor cannot dump: %+v, want stale with the dump's failure as last error", rh)
		}
	}

	c.Heal()
	c.Coord.Probe(ctx)
	for _, rh := range nodeHealth(c.Coord.Info(), c.Nodes[1].Srv.URL) {
		if !rh.Healthy || rh.Stale {
			t.Fatalf("replica after the donor healed: %+v, want re-synced and readmitted", rh)
		}
	}
}

// TestClusterLosingEveryReplicaFailsLoudly pins the exactness escape hatch:
// when every replica of a shard is unusable the coordinator must return an
// error, never a partial (silently approximate) answer.
func TestClusterLosingEveryReplicaFailsLoudly(t *testing.T) {
	d := dataset.Spanish(60, 9)
	c := Start(t, Config{
		Nodes: 2, Shards: 2, Replicas: 1, // R=1: each shard has one home
		Timeout: 200 * time.Millisecond,
	}, d.Strings, nil)
	o := NewOracle(c.Metric, d.Strings, nil)

	assertClusterKNN(t, o, c, "casa", 3, "pre-fault")
	c.Nodes[1].SetFault(FaultDown)
	if _, _, err := c.Coord.Query(context.Background(), "casa", search.KNN(3, math.Inf(1))); err == nil {
		t.Fatal("query succeeded with an entire shard unreachable — a partial answer leaked")
	}
	c.Heal()
	c.Coord.Probe(context.Background())
	assertClusterKNN(t, o, c, "casa", 3, "healed")
}
