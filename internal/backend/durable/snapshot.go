package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// snapFixed is the snapshot's fixed part: magic(8) | seq(8) | metaEpoch(8)
// | metaLen(4) before the metadata, crc32(4) after the payload.
const (
	snapFixed = 8 + 8 + 8 + 4 + 4
	metaOff   = snapFixed - 4 // where the metadata blob starts
)

// PayloadOffset is where the payload section of a snapshot whose
// metadata blob is metaLen bytes starts in the file.
func PayloadOffset(metaLen int) int64 { return metaOff + int64(metaLen) }

// Snapshot is a checkpoint as stored: the sealed metadata blob (nil if
// empty) with its sealing epoch, and whatever payload section the engine
// appended (aliasing the file image; empty for an engine that appends
// none), which lies PayloadLen bytes long at PayloadOff in the file.
type Snapshot struct {
	Seq        uint64
	MetaEpoch  uint64
	Meta       []byte
	Payload    []byte // nil from MapSnapshot: the section stays in the file
	PayloadOff int64
	PayloadLen int64
}

// encodeSnapshot streams one snapshot into dst. payload, if not nil,
// writes the engine's section after the metadata, and an error it returns
// (a section it cannot finish) fails the snapshot; a failed write sticks
// to the buffered writer and surfaces at the flush.
func (f *Format) encodeSnapshot(dst io.Writer, seq uint64, meta []byte, metaEpoch uint64, payload func(*bufio.Writer) error) error {
	crc := crc32.NewIEEE()
	w := bufio.NewWriterSize(io.MultiWriter(dst, crc), 1<<16)
	var hdr [snapFixed - 4]byte
	copy(hdr[0:8], f.SnapMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], seq)
	binary.LittleEndian.PutUint64(hdr[16:24], metaEpoch)
	binary.LittleEndian.PutUint32(hdr[24:28], uint32(len(meta)))
	w.Write(hdr[:])
	w.Write(meta)
	if payload != nil {
		if err := payload(w); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	// The trailer CRC covers everything written so far; it does not pass
	// through the hashing writer (w is already flushed).
	_, err := dst.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	return err
}

// LoadSnapshot reads and verifies dir's snapshot; nil means the directory
// has never been checkpointed.
func (f *Format) LoadSnapshot(dir string) (*Snapshot, error) {
	path := filepath.Join(dir, f.SnapName)
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, f.wrap(err)
	}
	s, err := f.decodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %s %w", f.Engine, path, err)
	}
	return s, nil
}

// decodeSnapshot is checkRegion over a file image in memory, with the
// payload aliasing the image.
func (f *Format) decodeSnapshot(data []byte) (*Snapshot, error) {
	s, err := f.checkRegion(&Region{m: data, size: int64(len(data))})
	if err != nil {
		return nil, err
	}
	s.Payload = data[s.PayloadOff : s.PayloadOff+s.PayloadLen]
	return s, nil
}

// MapSnapshot is LoadSnapshot that leaves the payload section in the
// file: it verifies the file's CRC where it lies, copies the metadata
// blob, and returns the snapshot (Payload nil) with the file opened for
// reads in place, which the caller closes. nil means the directory has
// never been checkpointed.
func (f *Format) MapSnapshot(dir string) (*Snapshot, *Region, error) {
	path := filepath.Join(dir, f.SnapName)
	r, err := OpenRegion(path, 0, false)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, f.wrap(err)
	}
	s, err := f.checkRegion(r)
	if err != nil {
		r.Close()
		return nil, nil, fmt.Errorf("%s: %s %w", f.Engine, path, err)
	}
	return s, r, nil
}

// checkRegion verifies a snapshot file read in place and decodes its
// envelope. The metadata blob is copied, so the file (every block, for
// the WAL) can be released while the backend keeps the blob.
func (f *Format) checkRegion(r *Region) (*Snapshot, error) {
	size := r.size
	var hdr [metaOff]byte
	if size < snapFixed || !r.ReadAt(hdr[:], 0) || string(hdr[:8]) != f.SnapMagic {
		return nil, errors.New("is not a palermo snapshot")
	}
	crc := crc32.NewIEEE()
	var trailer [4]byte
	err := Guarded(func() error { return r.WriteTo(crc, 0, size-4) })
	if err == nil && !r.ReadAt(trailer[:], size-4) {
		err = errors.New("short read")
	}
	if err != nil {
		return nil, fmt.Errorf("cannot be read: %w", err)
	}
	if crc.Sum32() != binary.LittleEndian.Uint32(trailer[:]) {
		return nil, errors.New("is corrupt (snapshot CRC mismatch)")
	}
	s := &Snapshot{Seq: binary.LittleEndian.Uint64(hdr[8:16]), MetaEpoch: binary.LittleEndian.Uint64(hdr[16:24])}
	metaLen := int(binary.LittleEndian.Uint32(hdr[24:28]))
	if PayloadOffset(metaLen) > size-4 {
		return nil, errors.New("is corrupt (snapshot metadata overruns the file)")
	}
	if metaLen > 0 {
		s.Meta = make([]byte, metaLen)
		if !r.ReadAt(s.Meta, metaOff) {
			return nil, errors.New("cannot be read: short read")
		}
	}
	s.PayloadOff = PayloadOffset(metaLen)
	s.PayloadLen = size - 4 - s.PayloadOff
	return s, nil
}

// Checkpoint makes seq the directory's checkpoint: the snapshot lands
// first (temp + rename), only then is the log replaced by an empty one
// carrying seq, which is returned opened for appending. The caller has
// already made metaEpoch's reservation durable in the current log. A
// payload that returns an error fails the checkpoint before anything is
// renamed.
//
// Any failure at or after the snapshot rename goes through wedge, the
// caller's fail-fast switch, before it is returned: the directory may
// already be at seq, and appending to the old-seq log would acknowledge
// writes that a later Recover discards as pre-snapshot. An earlier failure
// leaves the directory as it was and the backend usable.
func (f *Format) Checkpoint(dir string, seq uint64, meta []byte, metaEpoch uint64,
	payload func(*bufio.Writer) error, wedge func(error) error) (*os.File, error) {
	renamed, err := replaceNamed(filepath.Join(dir, f.SnapName), func(fd *os.File) error {
		return f.encodeSnapshot(fd, seq, meta, metaEpoch, payload)
	})
	if err != nil {
		err = fmt.Errorf("%s: snapshot: %w", f.Engine, err)
		if renamed {
			err = wedge(err)
		}
		return nil, err
	}
	log, err := f.resetLog(dir, seq)
	if err != nil {
		return nil, wedge(err)
	}
	return log, nil
}
