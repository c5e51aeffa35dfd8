package live

import (
	"fmt"
	"sync"
	"time"
)

// waiter is the package's one way for a caller to wait on a lane: the
// caller posts a ctrlMsg carrying it, the lane fills in the outcome and
// completes it, the caller wakes or times out. Waiters are pooled, with
// their timer, so a wait allocates nothing in the steady state.
//
// Ownership: a waiter whose outcome was received — or that was never
// posted — goes back to the pool. One that timed out never does: the lane
// may still hold it, in pending or in a queued ctrlMsg, and complete it
// later, and a recycled waiter would hand that late outcome to whichever
// caller drew it next. It is left to the garbage collector instead.
type waiter struct {
	ready chan struct{} // one slot: complete never blocks the lane
	timer *time.Timer
	res   QueryResult // cQuery outcome
	info  NodeInfo    // cInspect outcome
}

var waiters = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &waiter{ready: make(chan struct{}, 1), timer: t}
}}

func getWaiter() *waiter { return waiters.Get().(*waiter) }

// putWaiter recycles a waiter nothing else references any more.
func putWaiter(w *waiter) {
	w.res, w.info = QueryResult{}, NodeInfo{}
	waiters.Put(w)
}

// call posts c to the lane with a waiter attached and waits up to timeout
// for the lane to complete it. On success the caller reads the outcome off
// the returned waiter and recycles it with putWaiter; on error there is
// nothing to recycle.
func (l *lane) call(c ctrlMsg, timeout time.Duration) (*waiter, error) {
	w := getWaiter()
	c.w = w
	if !l.postCtrl(c) {
		putWaiter(w)
		return nil, fmt.Errorf("live: node %d is overloaded", l.n.id)
	}
	if !w.wait(timeout) {
		return nil, ErrTimeout
	}
	return w, nil
}

// complete wakes the waiting caller; the lane calls it after filling in
// the outcome.
func (w *waiter) complete() {
	select {
	case w.ready <- struct{}{}:
	default:
	}
}

// wait blocks until the lane completes w or timeout passes, and reports
// which. After true the caller reads the outcome and recycles w; after
// false it must let go of w.
func (w *waiter) wait(timeout time.Duration) bool {
	w.timer.Reset(timeout)
	select {
	case <-w.ready:
		// The timer may have fired in the meantime. Under go.mod's timer
		// semantics (before Go 1.23) a fired tick then sits in the channel
		// and would end the next wait at once; under the newer ones Stop
		// already discarded it. A non-blocking drain is right for both.
		if !w.timer.Stop() {
			select {
			case <-w.timer.C:
			default:
			}
		}
		return true
	case <-w.timer.C:
		return false
	}
}
