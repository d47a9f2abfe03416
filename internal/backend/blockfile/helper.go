package blockfile

import (
	"os"

	"palermo/internal/backend"
)

// job is one group commit handed to the helper: the closed batch's
// records and the log they go to.
type job struct {
	c    *backend.Commit
	recs []byte
	logF *os.File
}

// startHelper starts the backend's one helper goroutine. It runs each
// commit handed to it, in order, and settles the commit with its outcome;
// between commits it turns each kick into a writeback hint on the slot
// file. At GroupCommit 1 every commit runs inside its Put, so no helper
// starts; below GroupCommit 4 a batch has no quarter to hint at, so no
// hint is sent.
func (b *Backend) startHelper() {
	if b.opt.GroupCommit == 1 {
		return
	}
	jobs, done, f := make(chan job, 1), make(chan struct{}), b.dataF
	var kick chan struct{}
	if hintWriteback && b.opt.GroupCommit >= 4 {
		kick = make(chan struct{}, 1)
	}
	b.jobs, b.kick, b.helperDone = jobs, kick, done
	b.spare = make([]byte, 0, cap(b.recs))
	go func() {
		defer close(done)
		for {
			select {
			case j, ok := <-jobs:
				if !ok {
					return
				}
				j.c.Settle(b.syncBatch(j.recs, j.logF))
			case <-kick:
				writeback(f)
			}
		}
	}()
}

// stopHelper closes the helper's job channel and waits for it to exit:
// the commit in flight settles first, and no commit or hint is running
// when the files close.
func (b *Backend) stopHelper() {
	if b.jobs != nil {
		close(b.jobs)
		<-b.helperDone
		b.jobs, b.kick, b.helperDone = nil, nil, nil
	}
}

// closeBatch commits the batch the last put filled. Above GroupCommit 1
// it waits for the commit in flight, so at most one is, then hands this
// one to the helper with the batch's records, and the next batch fills
// the other record buffer.
func (b *Backend) closeBatch() error {
	if b.jobs == nil {
		return b.commit()
	}
	if err := b.settle(); err != nil {
		return err
	}
	c := backend.NewCommit()
	b.jobs <- job{c: c, recs: b.recs, logF: b.logF}
	b.inflight = c
	b.recs, b.spare = b.spare[:0], b.recs
	b.pending = 0
	return nil
}

// settle waits for the commit in flight. A failed commit wedges the
// backend and stays reported by InFlight: nothing written after it was
// handed over will be committed.
func (b *Backend) settle() error {
	if b.inflight == nil {
		return nil
	}
	if err := b.inflight.Err(); err != nil {
		return b.fail(err)
	}
	b.inflight = nil
	return nil
}

// reap is settle for a commit that has already settled; it never waits.
func (b *Backend) reap() error {
	if b.inflight == nil {
		return nil
	}
	select {
	case <-b.inflight.Done():
		return b.settle()
	default:
		return nil
	}
}

// InFlight implements backend.Committer.
func (b *Backend) InFlight() *backend.Commit { return b.inflight }
