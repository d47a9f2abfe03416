package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// HeaderSize is the log header: magic(8) | seq(8) | crc32(4).
const HeaderSize = 8 + 8 + 4

// Header builds the header of a log that follows checkpoint seq.
func (f *Format) Header(seq uint64) []byte {
	hdr := make([]byte, HeaderSize)
	copy(hdr[0:8], f.LogMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	binary.LittleEndian.PutUint32(hdr[16:20], crc32.ChecksumIEEE(hdr[:16]))
	return hdr
}

// Frame builds one CRC-framed record in rec, whose length is the format's
// record size: local | epoch | payload | crc32. A record without a
// payload of its own (a marker, or a format that logs only metadata)
// passes nil and leaves the payload bytes as they are.
func Frame(rec []byte, local, epoch uint64, payload []byte) {
	binary.LittleEndian.PutUint64(rec[0:8], local)
	binary.LittleEndian.PutUint64(rec[8:16], epoch)
	copy(rec[16:len(rec)-4], payload)
	binary.LittleEndian.PutUint32(rec[len(rec)-4:], crc32.ChecksumIEEE(rec[:len(rec)-4]))
}

// Fields returns the two fixed fields of a record.
func Fields(rec []byte) (local, epoch uint64) {
	return binary.LittleEndian.Uint64(rec[0:8]), binary.LittleEndian.Uint64(rec[8:16])
}

// intact reports whether one fixed-size record passes its CRC.
func intact(rec []byte) bool {
	return crc32.ChecksumIEEE(rec[:len(rec)-4]) == binary.LittleEndian.Uint32(rec[len(rec)-4:])
}

// Replay is how an engine consumes its log during Recover.
type Replay struct {
	// Group, if set, reports how many records following rec form one
	// atomic group with it: 0 for a record that stands alone, negative
	// for one the engine cannot have written. A group is applied only
	// when every member is intact; one a crash cut short is discarded
	// whole, from its first record.
	Group func(rec []byte) int
	// Apply receives each accepted record — for a group, all 1+n records
	// at once — in log order. The bytes are only valid during the call.
	Apply func(recs []byte)
	// Torn, if set, is called after the scan when a torn tail of the given
	// number of whole or partial records is about to be cut, and may
	// return one framed record to persist in its place. That record is
	// written and fsynced over the torn bytes BEFORE the rest is cut off,
	// so a second crash at any point still sees either the torn bytes or
	// the replacement, never neither.
	Torn func(records int) []byte
}

// Recover brings dir's log in line with the snapshot at snapSeq, replays
// its intact records through r, cuts a torn tail, and returns the log
// opened for appending.
func (f *Format) Recover(dir string, snapSeq uint64, r Replay) (*os.File, error) {
	path := filepath.Join(dir, f.LogName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		if snapSeq > 0 {
			// No crash ordering this code produces leaves a snapshot
			// without a log (the log is replaced via rename) — the log was
			// removed externally, along with any acknowledged
			// post-checkpoint writes it held. Refuse rather than silently
			// reinitializing over them.
			return nil, fmt.Errorf("%s: %s is missing but a checkpoint-%d snapshot exists (log removed externally)", f.Engine, path, snapSeq)
		}
		return f.resetLog(dir, snapSeq)
	}
	if err != nil {
		return nil, f.wrap(err)
	}
	if len(data) < HeaderSize || string(data[:8]) != f.LogMagic ||
		crc32.ChecksumIEEE(data[:16]) != binary.LittleEndian.Uint32(data[16:20]) {
		return nil, fmt.Errorf("%s: %s has a corrupt header", f.Engine, path)
	}
	seq := binary.LittleEndian.Uint64(data[8:16])
	if seq < snapSeq {
		// Crash between snapshot rename and log reset: every record in
		// this log is already folded into the snapshot. Discard it.
		return f.resetLog(dir, snapSeq)
	}
	if seq > snapSeq {
		// A log ahead of the snapshot cannot come from any crash ordering
		// this code produces (the log is reset strictly after the snapshot
		// rename) — the snapshot is missing or rolled back. Refuse rather
		// than silently reinitializing over acknowledged writes.
		return nil, fmt.Errorf("%s: %s is at checkpoint %d but the snapshot is at %d (missing or rolled-back snapshot)",
			f.Engine, path, seq, snapSeq)
	}
	rs := f.RecordSize
	off := HeaderSize
	for off+rs <= len(data) {
		n, bad := 0, -1 // followers in this record's group; offset of a failing record
		if !intact(data[off : off+rs]) {
			bad = off
		} else if r.Group != nil {
			if n = r.Group(data[off : off+rs]); n < 0 {
				bad = off
			}
		}
		if bad < 0 {
			if off+(n+1)*rs > len(data) {
				break // the file ends inside the group: torn at its first record
			}
			for j := 1; j <= n && bad < 0; j++ {
				if !intact(data[off+j*rs : off+(j+1)*rs]) {
					bad = off + j*rs
				}
			}
		}
		if bad >= 0 {
			// A torn tail ends the log; a bad record *followed by intact
			// ones* is mid-log corruption of acknowledged writes (records
			// are fixed-size, so alignment survives). Truncating through
			// corruption would silently drop the valid records behind it —
			// fail loudly and leave the file for inspection instead.
			for o := bad + rs; o+rs <= len(data); o += rs {
				if intact(data[o : o+rs]) {
					return nil, fmt.Errorf("%s: %s is corrupt at offset %d (intact records follow — not a crash tail)", f.Engine, path, bad)
				}
			}
			break // a group torn inside is cut from its first record
		}
		r.Apply(data[off : off+(n+1)*rs])
		off += (n + 1) * rs
	}
	if off < len(data) {
		var over []byte
		if r.Torn != nil {
			over = r.Torn((len(data) - off + rs - 1) / rs)
		}
		if err := cut(path, off, over); err != nil {
			return nil, f.wrap(err)
		}
	}
	return f.openLog(dir)
}

// cut truncates the log at off, first persisting over (if any) there.
func cut(path string, off int, over []byte) error {
	fd, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if over != nil {
		if _, err = fd.WriteAt(over, int64(off)); err == nil {
			err = fd.Sync()
		}
		off += len(over)
	}
	if err == nil {
		err = fd.Truncate(int64(off))
	}
	if err == nil {
		err = fd.Sync()
	}
	if cerr := fd.Close(); err == nil {
		err = cerr
	}
	return err
}

func (f *Format) openLog(dir string) (*os.File, error) {
	fd, err := os.OpenFile(filepath.Join(dir, f.LogName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, f.wrap(err)
	}
	return fd, nil
}

// resetLog atomically replaces the log with an empty one that follows
// checkpoint seq and returns it opened for appending.
func (f *Format) resetLog(dir string, seq uint64) (*os.File, error) {
	if _, err := replaceNamed(filepath.Join(dir, f.LogName), bytesOf(f.Header(seq))); err != nil {
		return nil, f.wrap(err)
	}
	return f.openLog(dir)
}
