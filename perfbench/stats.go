package main

import (
	"bufio"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// closest ranks. xs is sorted in place; +Inf entries (failed requests)
// sort last and are never interpolated with.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi || math.IsInf(xs[hi], 1) {
		return xs[lo]
	}
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5); xs is sorted in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces two collections (the second frees what the first's
// finalisers and pool victims released) and returns the live heap bytes.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// cpuModel reads the processor model from /proc/cpuinfo ("unknown" when
// it cannot).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// tickSample is the host's cumulative steal and total CPU ticks at one
// moment.
type tickSample struct {
	at           time.Time
	steal, total uint64
}

// sampleTicks reads the host's counters now.
func sampleTicks() tickSample {
	steal, total := cpuTicks()
	return tickSample{time.Now(), steal, total}
}

// stealShare is the share of the host's CPU time from a to b that was
// stolen (0 when the counters did not move or could not be read).
func stealShare(a, b tickSample) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// cpuTicks returns the host's steal and total CPU ticks from the first
// line of /proc/stat (zeros when unreadable). A VM's steal is time its
// vCPUs were runnable but the hypervisor ran another tenant.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// mix64 is the splitmix64 finaliser: a seeded, well-spread hash for
// choosing the oracle's sample and digesting answer sets.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hitDigest is an order-independent digest of one (id, distance) answer
// element; an answer set's digest is the sum over its elements, so a
// server's (distance, ID) order and the oracle's scan order agree.
func hitDigest(id uint64, d float64) uint64 {
	return mix64(id ^ mix64(math.Float64bits(d)))
}

// timeSegments is the number of equal time slices of a run. qps and the
// read p50 and p90 are medians over the half of them with the least host
// steal, and the write p50 is taken over the writes in that half:
// contention from other tenants that hits up to about two thirds of a run
// moves slices the figures leave out, not the reported values.
const timeSegments = 10

// e2eStats are the timed phase's end-to-end latency and throughput
// figures.
type e2eStats struct {
	qps, p50, p90 float64
	p95, p99      float64 // over the whole run; printed, not gated
	writeP50      float64
	answers       int
	reads, writes int
	kept          int     // time slices the medians are taken over
	keptSteal     float64 // their mean steal share
}

// endToEnd computes the end-to-end figures of the timed ops. qps and the
// read p50 and p90 are medians over the time slices whose host steal
// share, placed by ticks, is at most the median slice's (all slices when
// ticks cannot tell them apart); the write p50 is the median of the
// writes in those slices, too few in one slice for a median of its own.
// With at least minTailReads reads each slice's p90 has ten reads beyond
// it. A failed request enters the percentiles as +Inf and contributes no
// answers.
func endToEnd(ops []op, recs []record, elapsed time.Duration, ticks []tickSample) e2eStats {
	var st e2eStats
	if len(ops) == 0 {
		return st
	}
	first := recs[0].end.Add(-recs[0].lat)
	slice := elapsed / timeSegments
	segAns := make([]float64, timeSegments)
	segLat := make([][]float64, timeSegments)
	segWrites := make([][]float64, timeSegments)
	var lat []float64
	for i := range ops {
		r := &recs[i]
		v := ms(r.lat)
		if r.status != http.StatusOK {
			v = math.Inf(1)
		}
		k := min(max(int(r.end.Sub(first)/slice), 0), timeSegments-1)
		if !ops[i].kind.read() {
			segWrites[k] = append(segWrites[k], v)
			st.writes++
			continue
		}
		segLat[k] = append(segLat[k], v)
		lat = append(lat, v)
		if r.status == http.StatusOK {
			segAns[k] += float64(len(ops[i].queries))
			st.answers += len(ops[i].queries)
		}
	}
	st.reads = len(lat)
	steal := make([]float64, timeSegments)
	for k := range steal {
		lo := first.Add(time.Duration(k) * slice)
		steal[k] = stealShare(ticksAt(ticks, lo), ticksAt(ticks, lo.Add(slice)))
	}
	cut := median(append([]float64(nil), steal...))
	var qps, p50s, p90s, writes []float64
	for k := range segAns {
		if steal[k] > cut {
			continue
		}
		qps = append(qps, segAns[k]/slice.Seconds())
		p50s = append(p50s, quantile(segLat[k], 0.50))
		p90s = append(p90s, quantile(segLat[k], 0.90))
		writes = append(writes, segWrites[k]...)
		st.keptSteal += steal[k]
	}
	st.kept = len(qps)
	st.keptSteal /= float64(st.kept)
	st.qps, st.p50, st.p90, st.writeP50 = median(qps), median(p50s), median(p90s), median(writes)
	st.p95, st.p99 = quantile(lat, 0.95), quantile(lat, 0.99)
	return st
}

// ticksAt is the last sample taken at or before t (the first sample when
// none was; a zero sample when there are none).
func ticksAt(ticks []tickSample, t time.Time) tickSample {
	j := sort.Search(len(ticks), func(j int) bool { return ticks[j].at.After(t) })
	if j == 0 {
		if len(ticks) == 0 {
			return tickSample{}
		}
		return ticks[0]
	}
	return ticks[j-1]
}
