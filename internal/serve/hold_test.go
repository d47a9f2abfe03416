package serve

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"palermo/internal/backend"
)

// commitBackend is a memBackend whose writes a group commit acknowledges,
// the way blockfile's are: a write to an id in closers starts a commit that
// the test settles, and InFlight reports it until a later write finds it
// settled successfully. A failed commit stays reported.
type commitBackend struct {
	*memBackend
	closers map[uint64]bool
	cur     *backend.Commit
	started chan *backend.Commit
}

func newCommitBackend(closers ...uint64) *commitBackend {
	c := &commitBackend{memBackend: newMemBackend(), closers: map[uint64]bool{}, started: make(chan *backend.Commit, 8)}
	for _, id := range closers {
		c.closers[id] = true
	}
	return c
}

func (c *commitBackend) Write(local uint64, data []byte) error {
	if c.cur != nil {
		select {
		case <-c.cur.Done():
			if c.cur.Err() == nil {
				c.cur = nil
			}
		default:
		}
	}
	if err := c.memBackend.Write(local, data); err != nil {
		return err
	}
	if c.closers[local] {
		c.cur = backend.NewCommit()
		c.started <- c.cur
	}
	return nil
}

func (c *commitBackend) WriteMany(ids []uint64, data [][]byte, errs []error) {
	for i, id := range ids {
		errs[i] = c.Write(id, data[i])
	}
}

func (c *commitBackend) InFlightFunc() func() *backend.Commit {
	return func() *backend.Commit { return c.cur }
}

// started waits for the next commit the backend starts.
func (c *commitBackend) next(t *testing.T) *backend.Commit {
	t.Helper()
	select {
	case cm := <-c.started:
		return cm
	case <-time.After(5 * time.Second):
		t.Fatal("no commit started")
		return nil
	}
}

// completed reports, on the worker, how many completions ran so far.
func completed(t *testing.T, s *Service, order *[]uint64) int {
	t.Helper()
	var n int
	if err := s.Sync(func() { n = len(*order) }); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestHeldWritesReleaseInOrder: the writes that ran while a commit was in
// flight complete after it settles, in execution order, each once, with
// its own error or else the commit's; a write that runs after the commit
// is replaced by the next one releases the held writes first.
func TestHeldWritesReleaseInOrder(t *testing.T) {
	b := newCommitBackend(1, 11, 14)
	b.failOn, b.hasFail = 12, true
	s := New(b, Config{})
	defer s.Close()
	var order []uint64 // appended on the worker
	errs := map[uint64]error{}
	submitWrite := func(id uint64) {
		t.Helper()
		if err := s.SubmitFunc(OpWrite, id, payload(id), func(_ int, _ []byte, err error) {
			order = append(order, id)
			errs[id] = err
		}); err != nil {
			t.Fatal(err)
		}
	}

	submitWrite(1)
	c1 := b.next(t)
	submitWrite(2)
	submitWrite(3)
	if n := completed(t, s, &order); n != 0 {
		t.Fatalf("%d writes completed before their commit settled", n)
	}
	c1.Settle(nil)
	submitWrite(4) // no commit in flight: completes at once, behind 1–3
	if completed(t, s, &order); !reflect.DeepEqual(order, []uint64{1, 2, 3, 4}) {
		t.Fatalf("completion order %v, want [1 2 3 4]", order)
	}

	commitErr := errors.New("commit failed")
	submitWrite(11)
	c2 := b.next(t)
	submitWrite(12) // fails on its own
	submitWrite(13)
	c2.Settle(nil)
	submitWrite(14) // the next commit: 11–13 are released first
	c3 := b.next(t)
	if completed(t, s, &order); !reflect.DeepEqual(order[4:], []uint64{11, 12, 13}) {
		t.Fatalf("completions after the second commit %v, want [11 12 13]", order[4:])
	}
	submitWrite(15)
	c3.Settle(commitErr)
	for completed(t, s, &order) < 9 {
		time.Sleep(time.Millisecond)
	}
	if !reflect.DeepEqual(order[7:], []uint64{14, 15}) {
		t.Fatalf("completions after the failed commit %v, want [14 15]", order[7:])
	}
	for id, want := range map[uint64]error{1: nil, 4: nil, 11: nil, 13: nil, 14: commitErr, 15: commitErr} {
		if errs[id] != want {
			t.Errorf("write %d completed with %v, want %v", id, errs[id], want)
		}
	}
	if errs[12] == nil || errs[12] == commitErr {
		t.Errorf("write 12 completed with %v, want its own failure", errs[12])
	}
}

// TestReadBehindHeldWriteCompletesFirst: reads are never held, not even
// one queued behind a held write of the same block.
func TestReadBehindHeldWriteCompletesFirst(t *testing.T) {
	b := newCommitBackend(1)
	s := New(b, Config{})
	defer s.Close()
	w, err := submit(s, Req{Op: OpWrite, ID: 1, Data: payload(9)})
	if err != nil {
		t.Fatal(err)
	}
	c := b.next(t)
	got, err := read(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, payload(9)) {
		t.Fatal("the read missed the write ahead of it")
	}
	select {
	case o := <-w[0]:
		t.Fatalf("the write completed (%v) before its commit settled", o.err)
	default:
	}
	c.Settle(nil)
	if _, err := w.wait(0); err != nil {
		t.Fatal(err)
	}
}

// TestHeldWriteLatencyIncludesHold: a held write is recorded when it
// completes, and its WriteLat and ExecLat include the hold, because that
// is what its caller waited.
func TestHeldWriteLatencyIncludesHold(t *testing.T) {
	const hold = 10 * time.Millisecond
	b := newCommitBackend(1)
	s := New(b, Config{})
	defer s.Close()
	w, err := submit(s, Req{Op: OpWrite, ID: 1, Data: payload(1)})
	if err != nil {
		t.Fatal(err)
	}
	c := b.next(t)
	time.Sleep(hold)
	if n := snapshot(s).Writes; n != 0 {
		t.Fatalf("%d writes recorded while held, want 0", n)
	}
	c.Settle(nil)
	if _, err := w.wait(0); err != nil {
		t.Fatal(err)
	}
	st := snapshot(s)
	us := float64(hold / time.Microsecond)
	if st.Writes != 1 || st.WriteLat.P50Us < us || st.ExecLat.P50Us < us {
		t.Fatalf("writes %d, WriteLat p50 %.0f µs, ExecLat p50 %.0f µs: want 1 write and both ≥ %.0f µs",
			st.Writes, st.WriteLat.P50Us, st.ExecLat.P50Us, us)
	}
}

// TestCloseReleasesHeldWrites: Close waits for the commit that held
// writes wait on, then completes each of them once, before the backend
// closes.
func TestCloseReleasesHeldWrites(t *testing.T) {
	b := newCommitBackend(1)
	s := New(b, Config{})
	var ps []pending
	for id := uint64(1); id <= 3; id++ {
		p, err := submit(s, Req{Op: OpWrite, ID: id, Data: payload(id)})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	c := b.next(t)
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with writes held for an unsettled commit", err)
	default:
	}
	c.Settle(nil)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	for i, p := range ps {
		if _, err := p.wait(0); err != nil {
			t.Fatalf("write %d: %v", i+1, err)
		}
		select {
		case <-p[0]:
			t.Fatalf("write %d completed twice", i+1)
		default:
		}
	}
	if b.closes != 1 {
		t.Fatalf("backend closed %d times, want 1", b.closes)
	}
}
