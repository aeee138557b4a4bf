//go:build !race

package broker

import (
	"testing"

	"repro/internal/storage/log"
)

// The race detector's instrumentation allocates, so this pin builds only
// without it; CI runs it in its non-race step.

// An append that no long-poll waits on makes no channel: notifyLocked finds
// nothing to close. A channel handed out is closed by the next notify.
func TestNotifyWithoutWaiterAllocatesNothing(t *testing.T) {
	l, err := log.Open(t.TempDir(), log.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := newReplica(tp{topic: "n", partition: 0}, l, 1)
	defer r.close()
	notify := func() {
		r.mu.Lock()
		r.notifyLocked(viewCommitted, viewReplication)
		r.mu.Unlock()
	}
	if allocs := testing.AllocsPerRun(100, notify); allocs != 0 {
		t.Errorf("%v allocations per notify with no waiter, want none", allocs)
	}
	ch := r.notifyChan(viewCommitted)
	notify()
	select {
	case <-ch:
	default:
		t.Fatal("the waiter's channel was not closed")
	}
}
