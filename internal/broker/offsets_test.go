package broker

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestOffsetCommitTimedOutIsNotFetched: a commit whose ack times out was
// never committed, so OffsetFetch and OffsetQuery must not return it. The
// partition has two replicas in sync and the follower never fetches, so the
// high watermark never covers the commit's record.
func TestOffsetCommitTimedOutIsNotFetched(t *testing.T) {
	now := clockBase
	b := clockBroker(&now)
	b.timeouts = func(time.Duration) <-chan time.Time {
		fired := make(chan time.Time, 1)
		fired <- now
		return fired
	}
	b.offsets = newOffsetManager(b)
	r, _ := offsetsLeader(t, b, t.TempDir(), 1, 2)

	if code := b.offsets.commit("g", "t", 0, 10, `{"v":"1"}`); code != wire.ErrRequestTimedOut {
		t.Fatalf("commit with a follower that never fetches = %v, want ErrRequestTimedOut", code)
	}
	if end := r.log.NextOffset(); end != 1 {
		t.Fatalf("log end %d after the commit, want its record appended (1)", end)
	}
	if cp, found, code := b.offsets.fetch("g", "t", 0); code != wire.ErrNone || found {
		t.Fatalf("fetch after a timed-out commit = %+v found=%v %v, want nothing committed", cp, found, code)
	}
	q := b.offsets.query(&wire.OffsetQueryRequest{Group: "g", Topic: "t", AnnotationKey: "v", AnnotationValue: "1"})
	if q.Err != wire.ErrNone || q.Found {
		t.Fatalf("query after a timed-out commit = %+v, want nothing committed", q)
	}
}

// TestConcurrentCommitsSurviveLeaderChange: commits racing on one key must
// reach the log in the order their histories were extended, so a successor
// that rebuilds the histories from the log serves what the old leader
// served. Each round commits concurrently, reads every annotation back,
// moves leadership away and back (the table rematerializes from the log)
// and reads them again.
func TestConcurrentCommitsSurviveLeaderChange(t *testing.T) {
	now := clockBase
	b := clockBroker(&now)
	b.offsets = newOffsetManager(b)
	r, _ := offsetsLeader(t, b, t.TempDir())

	const rounds, writers = 30, 4
	var tags []string
	served := func() []string {
		t.Helper()
		var out []string
		for _, tag := range tags {
			q := b.offsets.query(&wire.OffsetQueryRequest{Group: "g", Topic: "t", AnnotationKey: "n", AnnotationValue: tag})
			if q.Err != wire.ErrNone {
				t.Fatalf("query %s: %v", tag, q.Err)
			}
			out = append(out, fmt.Sprint(tag, q.Found, q.Offset))
		}
		cp, found, code := b.offsets.fetch("g", "t", 0)
		if code != wire.ErrNone {
			t.Fatalf("fetch: %v", code)
		}
		return append(out, fmt.Sprint("newest", found, cp.Offset))
	}
	epoch := int32(1)
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			tag := fmt.Sprintf("%d-%d", round, w)
			tags = append(tags, tag)
			wg.Add(1)
			go func(off int64) {
				defer wg.Done()
				if code := b.offsets.commit("g", "t", 0, off, fmt.Sprintf(`{"n":%q}`, tag)); code != wire.ErrNone {
					t.Errorf("commit %s: %v", tag, code)
				}
			}(int64(round*writers + w))
		}
		wg.Wait()
		before := served()

		b.detachTable(r.tp)
		if err := r.becomeFollower(2, epoch+1, int64(epoch+1)); err != nil {
			t.Fatal(err)
		}
		epoch += 2
		r.becomeLeader(epoch, []int32{1}, []int32{1}, int64(epoch))
		b.attachTable(r.tp, r)

		after := served()
		if fmt.Sprint(before) != fmt.Sprint(after) {
			t.Fatalf("round %d: the successor serves a different history\nbefore: %v\nafter:  %v", round, before, after)
		}
	}
}
