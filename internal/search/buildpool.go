package search

import "sync"

// buildMinStripe is the minimum number of distance evaluations each striped
// fan worker must receive during an index build; buildSpawnCutoff is the
// smallest subtree worth a dedicated goroutine. Below them, spawn overhead
// rivals the distance evaluations (the concurrent build of the enclosing
// subtrees already covers the tail).
const (
	buildMinStripe   = 16
	buildSpawnCutoff = 24
)

// buildPool is the shared goroutine budget of one parallel BK-tree
// build: one implicit slot for the goroutine that entered the
// build plus workers−1 spare tokens, drawn from by both the per-node
// distance fans and the concurrent subtree builds. Because every extra
// goroutine — fan worker or subtree builder — holds a token for its
// lifetime, the build never evaluates distances on more than `workers`
// goroutines at once, which is the BuildWorkers contract the serving
// engine relies on to protect query traffic during a cold start.
type buildPool struct {
	workers int
	spare   chan struct{}
}

func newBuildPool(workers int) *buildPool {
	return &buildPool{workers: workers, spare: make(chan struct{}, workers-1)}
}

// fanWidth borrows spare tokens for a fan over n distance evaluations and
// returns the width the caller may fan at: 1 (the caller's own slot) plus
// one borrowed token per extra striped worker, never narrower than one
// worker per buildMinStripe items. Borrowing is non-blocking — when the
// budget is spent elsewhere the fan just runs narrower. Pair with
// fanDone(width).
func (p *buildPool) fanWidth(n int) int {
	want := n / buildMinStripe
	if want > p.workers {
		want = p.workers
	}
	width := 1
	for width < want {
		select {
		case p.spare <- struct{}{}:
			width++
		default:
			return width
		}
	}
	return width
}

// fanDone returns the tokens borrowed by fanWidth.
func (p *buildPool) fanDone(width int) {
	for ; width > 1; width-- {
		<-p.spare
	}
}

// trySpawn runs f on a spare goroutine when the subtree holds at least
// buildSpawnCutoff elements and a token is free, reporting whether it did;
// the caller runs f inline on false and must wg.Wait before reading
// anything f writes on true.
func (p *buildPool) trySpawn(size int, wg *sync.WaitGroup, f func()) bool {
	if size < buildSpawnCutoff {
		return false
	}
	select {
	case p.spare <- struct{}{}:
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
			<-p.spare
		}()
		return true
	default:
		return false
	}
}
