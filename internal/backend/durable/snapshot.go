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
const snapFixed = 8 + 8 + 8 + 4 + 4

// Snapshot is a checkpoint as stored: the sealed metadata blob (nil if
// empty) with its sealing epoch, and whatever payload section the engine
// appended (aliasing the file image; empty for an engine that appends none).
type Snapshot struct {
	Seq       uint64
	MetaEpoch uint64
	Meta      []byte
	Payload   []byte
}

// encodeSnapshot streams one snapshot into dst. payload, if not nil,
// writes the engine's section after the metadata; a failed write sticks to
// the buffered writer and surfaces at the flush.
func (f *Format) encodeSnapshot(dst io.Writer, seq uint64, meta []byte, metaEpoch uint64, payload func(*bufio.Writer)) error {
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
		payload(w)
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

func (f *Format) decodeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < snapFixed || string(data[:8]) != f.SnapMagic {
		return nil, errors.New("is not a palermo snapshot")
	}
	body := data[:len(data)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[len(data)-4:]) {
		return nil, errors.New("is corrupt (snapshot CRC mismatch)")
	}
	s := &Snapshot{Seq: binary.LittleEndian.Uint64(body[8:16]), MetaEpoch: binary.LittleEndian.Uint64(body[16:24])}
	metaLen := int(binary.LittleEndian.Uint32(body[24:28]))
	if 28+metaLen > len(body) {
		return nil, errors.New("is corrupt (snapshot metadata overruns the file)")
	}
	if metaLen > 0 {
		// Copied, so the file image (every block, for the WAL) can be
		// released while the backend keeps the blob.
		s.Meta = append([]byte(nil), body[28:28+metaLen]...)
	}
	s.Payload = body[28+metaLen:]
	return s, nil
}

// Checkpoint makes seq the directory's checkpoint: the snapshot lands
// first (temp + rename), only then is the log replaced by an empty one
// carrying seq, which is returned opened for appending. The caller has
// already made metaEpoch's reservation durable in the current log.
//
// Any failure at or after the snapshot rename goes through wedge, the
// caller's fail-fast switch, before it is returned: the directory may
// already be at seq, and appending to the old-seq log would acknowledge
// writes that a later Recover discards as pre-snapshot. An earlier failure
// leaves the directory as it was and the backend usable.
func (f *Format) Checkpoint(dir string, seq uint64, meta []byte, metaEpoch uint64,
	payload func(*bufio.Writer), wedge func(error) error) (*os.File, error) {
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
