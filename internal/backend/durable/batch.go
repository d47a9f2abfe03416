package durable

import (
	"slices"

	"palermo/internal/backend"
)

// Batch is the one group-commit path both engines own (DESIGN.md §9,
// §12). The owner frames records into the open batch (Append) and counts
// them toward GroupCommit (Add); the Add that fills the batch closes it.
// Above GroupCommit 1 a closed batch goes to the engine's one helper
// goroutine, which runs the engine's commit and settles it while the next
// batch fills the other record buffer. The Add that closes a batch first
// waits for the commit in flight, so at most one is. At GroupCommit 1
// every commit runs inside its Add and no helper starts. The first failed
// commit wedges the engine; Commit (Flush, Checkpoint, an epoch
// reservation) and Stop (Close, a wedge) settle the commit in flight
// first.
//
// Only the owner goroutine calls a Batch's methods. The helper touches
// nothing but the records it was handed and what the engine's commit
// reads, which the owner changes only with no commit in flight.
type Batch struct {
	group, size int
	commit      func(recs []byte) error
	fail        func(error) error

	recs, spare []byte // the open batch's framed records; the other buffer
	pending     int    // records counted toward group since the last commit

	// The helper: jobs hands it one closed batch at a time, kick wakes it
	// for a hint, and done closes when it has exited. jobs and done are
	// nil where no helper runs, kick also where no hint is sent. inflight
	// is the commit last handed over, until a later write finds it
	// settled successfully.
	jobs     chan job
	kick     chan struct{}
	done     chan struct{}
	inflight *backend.Commit
}

// job is one closed batch handed to the helper.
type job struct {
	c    *backend.Commit
	recs []byte
}

// Start readies b for records of recordSize bytes and, above GroupCommit
// 1, starts the helper. commit runs one closed batch: it writes the
// records to the engine's log and makes them durable. fail wedges the
// engine and must call Stop. hint, if not nil, runs on the helper each
// time the open batch's records cross a quarter of group (a batch below
// 4 has no quarter, so none is sent).
func (b *Batch) Start(group, recordSize int, commit func(recs []byte) error, fail func(error) error, hint func()) {
	b.group, b.size, b.commit, b.fail = group, recordSize, commit, fail
	b.recs = make([]byte, 0, (group+1)*recordSize)
	if group == 1 {
		return
	}
	b.jobs, b.done = make(chan job, 1), make(chan struct{})
	if hint != nil && group >= 4 {
		b.kick = make(chan struct{}, 1)
	}
	b.spare = make([]byte, 0, cap(b.recs))
	go b.helper(b.jobs, b.kick, b.done, hint)
}

// helper runs each commit handed to it, in order, and settles it with its
// outcome; between commits it turns each kick into a hint.
func (b *Batch) helper(jobs <-chan job, kick <-chan struct{}, done chan<- struct{}, hint func()) {
	defer close(done)
	for {
		select {
		case j, ok := <-jobs:
			if !ok {
				return
			}
			j.c.Settle(b.commit(j.recs))
		case <-kick:
			hint()
		}
	}
}

// Append frames one record at the end of the open batch. It frames in
// place, in the buffer's spare capacity, so a write allocates nothing
// once the buffer has reached a batch's size (a local array would escape
// through the CRC call). A nil payload leaves the payload bytes zero.
func (b *Batch) Append(local, epoch uint64, payload []byte) {
	n := len(b.recs)
	b.recs = slices.Grow(b.recs, b.size)[:n+b.size]
	clear(b.recs[n:])
	Frame(b.recs[n:], local, epoch, payload)
}

// Add counts n appended records toward the batch, and closes it when it
// is full: a vector of n records commits at most once. Above GroupCommit
// 1 it waits for the commit in flight, hands this one to the helper and
// returns; else it commits here.
func (b *Batch) Add(n int) error {
	held := b.pending
	b.pending += n
	if b.pending < b.group {
		if b.kick != nil && b.pending/(b.group/4) != held/(b.group/4) {
			select { // a hint already queued covers these pages too
			case b.kick <- struct{}{}:
			default:
			}
		}
		return nil
	}
	if b.jobs == nil {
		return b.Commit()
	}
	if err := b.Settle(); err != nil {
		return err
	}
	c := backend.NewCommit()
	b.jobs <- job{c: c, recs: b.recs}
	b.inflight = c
	b.recs, b.spare = b.spare[:0], b.recs
	b.pending = 0
	return nil
}

// Commit runs the open batch's commit on the owner, after the commit in
// flight: every commit at GroupCommit 1, and the barrier of Flush,
// Checkpoint and an epoch reservation. A failure wedges the engine.
func (b *Batch) Commit() error {
	if err := b.Settle(); err != nil {
		return err
	}
	if err := b.commit(b.recs); err != nil {
		return b.fail(err)
	}
	b.recs, b.pending = b.recs[:0], 0
	return nil
}

// Settle waits for the commit in flight. A failed commit wedges the
// engine and stays reported by InFlight: nothing written after it was
// handed over will be committed.
func (b *Batch) Settle() error {
	if b.inflight == nil {
		return nil
	}
	if err := b.inflight.Err(); err != nil {
		return b.fail(err)
	}
	b.inflight = nil
	return nil
}

// Reap is Settle for a commit that has already settled; it never waits.
func (b *Batch) Reap() error {
	if b.inflight == nil {
		return nil
	}
	select {
	case <-b.inflight.Done():
		return b.Settle()
	default:
		return nil
	}
}

// Stop closes the helper's job channel and waits for it to exit: the
// commit in flight settles first, and no commit or hint is running when
// the engine closes its files. Idempotent; a no-op where no helper runs.
func (b *Batch) Stop() {
	if b.jobs != nil {
		close(b.jobs)
		<-b.done
		b.jobs, b.kick, b.done = nil, nil, nil
	}
}

// InFlight is the commit last handed to the helper, until a later write
// finds it settled successfully (backend.Committer).
func (b *Batch) InFlight() *backend.Commit { return b.inflight }

// Pending reports how many records the open batch has counted.
func (b *Batch) Pending() int { return b.pending }

// Helper returns the channel that closes when the helper has exited and
// the one a queued hint waits in; each is nil where none is used.
func (b *Batch) Helper() (done, kick <-chan struct{}) { return b.done, b.kick }
