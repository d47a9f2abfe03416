// Package wire is the palermo network protocol: a compact length-prefixed
// binary framing that carries oblivious-store operations between
// palermo.Client and the internal/netserve TCP server.
//
// A frame is a fixed 16-byte header followed by a payload:
//
//	offset  size  field
//	0       2     magic 0x504C ("PL"), big-endian
//	2       1     protocol version (1)
//	3       1     op code (request) or op|0x80 (response)
//	4       8     request id, big-endian (echoed verbatim by the response)
//	12      4     payload length, big-endian
//
// Request ids multiplex one connection: a client may pipeline many
// requests and match responses by id in whatever order they complete.
// Every decode path returns a typed error (ErrBadMagic, ErrBadVersion,
// ErrFrameTooLarge, ErrTruncated, ErrMalformed) and never panics on
// attacker-controlled bytes — the fuzz tests enforce it.
//
// The protocol deliberately carries only the §VI adversary's view:
// public block ids and sealed 64-byte payloads (DESIGN.md §8).
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"palermo/internal/stats"
)

const (
	// Magic is the first two bytes of every frame ("PL").
	Magic uint16 = 0x504C
	// Version is the protocol revision this package speaks. A frame with a
	// different version is rejected with ErrBadVersion so mixed deployments
	// fail loudly instead of misparsing payloads. Version 2 extended the
	// Stats body with the queue-wait/execute latency split; version 3
	// appended the tree-top cache and prefetch planner counters (both
	// incompatible fixed-width layout changes); version 4 added the cluster
	// layer: geometry epoch + owned-shard-range fields in Stats, the
	// Manifest op, the Migrate* op family, and StatusWrongEpoch; version 5
	// added overload shedding: StatusRetry and the Sheds counter in Stats;
	// version 6 carries the service latency histograms whole in Stats
	// (in place of fixed p50/p99 summaries) and drops the read/write
	// counts they hold and three always-zero prefetch counters.
	Version byte = 6
	// HeaderLen is the fixed frame-header size in bytes.
	HeaderLen = 16
	// BlockBytes is the store's payload granularity on the wire. A
	// compile-time assertion in the root package ties it to
	// palermo.BlockSize.
	BlockBytes = 64
	// MaxOps caps the operation count of one batch frame.
	MaxOps = 1 << 16
	// MaxPayload caps a frame's payload length: the largest legal frame is
	// a WriteBatch of MaxOps (id, block) pairs plus its count prefix.
	// Anything larger is rejected before allocation (ErrFrameTooLarge), so
	// a corrupt or hostile length field cannot balloon server memory.
	MaxPayload = 4 + MaxOps*(8+BlockBytes)
)

// Request op codes. A response echoes the request's op with RespFlag set.
const (
	OpRead       byte = 1
	OpWrite      byte = 2
	OpReadBatch  byte = 3
	OpWriteBatch byte = 4
	OpStats      byte = 5

	// OpManifest asks a node for its current placement manifest (the
	// response body is the manifest's canonical JSON encoding, opaque to
	// this package).
	OpManifest byte = 6

	// The migrate op family streams one shard's sealed state from its
	// owning node to a joining node (DESIGN.md §11). Begin opens a staging
	// session, Blocks carries sealed block records (snapshot and tail use
	// the same frame), Meta carries the sealed engine-state blob in chunks,
	// Commit installs the shard under the new geometry epoch, Abort
	// discards the staging session. OpMigrate is the admin trigger
	// (palermo-ctl -> source node): push the named shard to the target
	// address and cut over.
	OpMigrateBegin  byte = 7
	OpMigrateBlocks byte = 8
	OpMigrateMeta   byte = 9
	OpMigrateCommit byte = 10
	OpMigrateAbort  byte = 11
	OpMigrate       byte = 12

	// RespFlag marks a frame as a response to the op in the low bits.
	RespFlag byte = 0x80
)

// IsRequest reports whether op is a known request code.
func IsRequest(op byte) bool { return op >= OpRead && op <= OpMigrate }

// Resp returns the response op code for a request op.
func Resp(op byte) byte { return op | RespFlag }

// Status is the first payload byte of every response.
type Status byte

// Response status codes.
const (
	StatusOK         Status = 0 // op-specific body follows
	StatusClosed     Status = 1 // store is closed/draining; message follows
	StatusBad        Status = 2 // request was malformed or exceeded a limit
	StatusErr        Status = 3 // store rejected the op; message follows
	StatusWrongEpoch Status = 4 // node no longer owns the shard; refetch the manifest
	StatusRetry      Status = 5 // request shed under overload before execution; safe to retry
)

// Typed decode errors. Framing errors (magic/version/length/truncation)
// poison the stream — the peer must close the connection; ErrMalformed is
// scoped to one frame's payload and is answerable with StatusBad.
var (
	ErrBadMagic      = errors.New("wire: bad magic (not a palermo stream)")
	ErrBadVersion    = errors.New("wire: unsupported protocol version")
	ErrFrameTooLarge = errors.New("wire: frame exceeds the protocol size limit")
	ErrTruncated     = errors.New("wire: truncated frame")
	ErrMalformed     = errors.New("wire: malformed payload")
)

// Frame is one decoded protocol frame.
type Frame struct {
	Op      byte
	ReqID   uint64
	Payload []byte
}

// AppendFrame appends a complete frame (header + payload) to dst and
// returns the extended slice.
func AppendFrame(dst []byte, op byte, reqID uint64, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, op)
	dst = binary.BigEndian.AppendUint64(dst, reqID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// WriteFrame writes one frame to w.
func WriteFrame(w io.Writer, op byte, reqID uint64, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("%w: payload is %d bytes, limit %d", ErrFrameTooLarge, len(payload), MaxPayload)
	}
	buf := AppendFrame(make([]byte, 0, HeaderLen+len(payload)), op, reqID, payload)
	_, err := w.Write(buf)
	return err
}

// readHeader reads and validates a frame header, returning the frame (with
// no payload yet) and the payload length.
func readHeader(r io.Reader) (Frame, uint32, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, 0, headerErr(err)
	}
	return parseHeader(hdr[:])
}

// headerErr maps a failed header read: a clean EOF between frames stays
// io.EOF, anything else is ErrTruncated.
func headerErr(err error) error {
	if err == io.EOF {
		return io.EOF
	}
	return fmt.Errorf("%w: header: %v", ErrTruncated, err)
}

// parseHeader validates the HeaderLen bytes of hdr.
func parseHeader(hdr []byte) (Frame, uint32, error) {
	if got := binary.BigEndian.Uint16(hdr[0:2]); got != Magic {
		return Frame{}, 0, fmt.Errorf("%w: got 0x%04x", ErrBadMagic, got)
	}
	if hdr[2] != Version {
		return Frame{}, 0, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, hdr[2], Version)
	}
	f := Frame{Op: hdr[3], ReqID: binary.BigEndian.Uint64(hdr[4:12])}
	n := binary.BigEndian.Uint32(hdr[12:16])
	if n > MaxPayload {
		return Frame{}, 0, fmt.Errorf("%w: payload length %d, limit %d", ErrFrameTooLarge, n, MaxPayload)
	}
	return f, n, nil
}

// ReadFrame reads and validates one frame from r. A clean EOF between
// frames is returned as io.EOF; EOF inside a frame is ErrTruncated. The
// returned payload is freshly allocated and owned by the caller.
func ReadFrame(r io.Reader) (Frame, error) {
	f, n, err := readHeader(r)
	if err != nil {
		return Frame{}, err
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
		}
	}
	return f, nil
}

// --- pooled frame buffers ---------------------------------------------

// FrameBuf is a pooled byte buffer carrying one frame payload (receive
// path) or one encoded frame (reply path). B is valid until the buffer is
// returned to its pool.
type FrameBuf struct{ B []byte }

// maxPooledBytes bounds what a pool retains: a rare multi-megabyte batch
// frame should be garbage, not pinned forever in a pool slot.
const maxPooledBytes = 64 << 10

// BufPool recycles FrameBufs across a connection's hot receive/reply
// path, eliminating the per-frame payload and response allocations. The
// zero value is ready to use; it is safe for concurrent use.
type BufPool struct{ p sync.Pool }

// Get returns an empty buffer with at least the given capacity.
func (bp *BufPool) Get(capacity int) *FrameBuf {
	if v := bp.p.Get(); v != nil {
		fb := v.(*FrameBuf)
		if cap(fb.B) < capacity {
			fb.B = make([]byte, 0, capacity)
		}
		fb.B = fb.B[:0]
		return fb
	}
	return &FrameBuf{B: make([]byte, 0, capacity)}
}

// Put releases a buffer for reuse. Callers must not touch fb.B afterwards.
func (bp *BufPool) Put(fb *FrameBuf) {
	if fb == nil || cap(fb.B) > maxPooledBytes {
		return
	}
	bp.p.Put(fb)
}

// ReadFrameBuf is ReadFrame with pooled payload storage and no allocation
// of its own: the header is parsed where it sits in br's buffer, and the
// returned frame's payload aliases fb.B, which the caller must Put back
// once the payload is dead. fb is nil exactly when err is non-nil or the
// payload is empty.
func ReadFrameBuf(br *bufio.Reader, pool *BufPool) (f Frame, fb *FrameBuf, err error) {
	hdr, err := br.Peek(HeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, nil, headerErr(err)
	}
	f, n, err := parseHeader(hdr)
	br.Discard(HeaderLen) // cannot fail: Peek buffered HeaderLen bytes
	if err != nil {
		return Frame{}, nil, err
	}
	if n > 0 {
		fb = pool.Get(int(n))
		fb.B = fb.B[:n]
		if _, err := io.ReadFull(br, fb.B); err != nil {
			pool.Put(fb)
			return Frame{}, nil, fmt.Errorf("%w: payload: %v", ErrTruncated, err)
		}
		f.Payload = fb.B
	}
	return f, fb, nil
}

// BeginFrame appends a frame header with a zero payload length to dst, so
// a reply path can build the payload in place (one buffer, no copy) and
// seal it with EndFrame.
func BeginFrame(dst []byte, op byte, reqID uint64) []byte {
	dst = binary.BigEndian.AppendUint16(dst, Magic)
	dst = append(dst, Version, op)
	dst = binary.BigEndian.AppendUint64(dst, reqID)
	return binary.BigEndian.AppendUint32(dst, 0)
}

// EndFrame patches the payload length of the frame that starts at index
// start of buf (its header written by BeginFrame) and returns buf.
func EndFrame(buf []byte, start int) []byte {
	binary.BigEndian.PutUint32(buf[start+12:start+16], uint32(len(buf)-start-HeaderLen))
	return buf
}

// --- request payloads -------------------------------------------------

// AppendReadReq appends a Read request payload (the block id).
func AppendReadReq(dst []byte, id uint64) []byte {
	return binary.BigEndian.AppendUint64(dst, id)
}

// ParseReadReq decodes a Read request payload.
func ParseReadReq(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("%w: Read payload is %d bytes, want 8", ErrMalformed, len(p))
	}
	return binary.BigEndian.Uint64(p), nil
}

// AppendWriteReq appends a Write request payload (id + 64-byte block).
func AppendWriteReq(dst []byte, id uint64, block []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, id)
	return append(dst, block...)
}

// ParseWriteReq decodes a Write request payload. The returned block
// aliases p.
func ParseWriteReq(p []byte) (uint64, []byte, error) {
	if len(p) != 8+BlockBytes {
		return 0, nil, fmt.Errorf("%w: Write payload is %d bytes, want %d", ErrMalformed, len(p), 8+BlockBytes)
	}
	return binary.BigEndian.Uint64(p), p[8:], nil
}

// AppendReadBatchReq appends a ReadBatch request payload (count + ids).
func AppendReadBatchReq(dst []byte, ids []uint64) ([]byte, error) {
	if len(ids) == 0 || len(ids) > MaxOps {
		return dst, fmt.Errorf("%w: batch of %d ops, want 1..%d", ErrMalformed, len(ids), MaxOps)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint64(dst, id)
	}
	return dst, nil
}

// ParseReadBatchReq decodes a ReadBatch request payload.
func ParseReadBatchReq(p []byte) ([]uint64, error) {
	n, body, err := batchCount(p, 8)
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = binary.BigEndian.Uint64(body[i*8:])
	}
	return ids, nil
}

// AppendWriteBatchReq appends a WriteBatch request payload
// (count + (id, block) pairs).
func AppendWriteBatchReq(dst []byte, ids []uint64, blocks [][]byte) ([]byte, error) {
	if len(ids) == 0 || len(ids) > MaxOps {
		return dst, fmt.Errorf("%w: batch of %d ops, want 1..%d", ErrMalformed, len(ids), MaxOps)
	}
	if len(ids) != len(blocks) {
		return dst, fmt.Errorf("%w: %d ids but %d blocks", ErrMalformed, len(ids), len(blocks))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(ids)))
	for i, id := range ids {
		if len(blocks[i]) != BlockBytes {
			return dst, fmt.Errorf("%w: block %d is %d bytes, want %d", ErrMalformed, i, len(blocks[i]), BlockBytes)
		}
		dst = binary.BigEndian.AppendUint64(dst, id)
		dst = append(dst, blocks[i]...)
	}
	return dst, nil
}

// ParseWriteBatchReq decodes a WriteBatch request payload. Blocks alias p.
func ParseWriteBatchReq(p []byte) ([]uint64, [][]byte, error) {
	n, body, err := batchCount(p, 8+BlockBytes)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]uint64, n)
	blocks := make([][]byte, n)
	for i := range ids {
		rec := body[i*(8+BlockBytes):]
		ids[i] = binary.BigEndian.Uint64(rec)
		blocks[i] = rec[8 : 8+BlockBytes]
	}
	return ids, blocks, nil
}

// batchCount validates a batch payload's count prefix against its body
// length and the MaxOps cap.
func batchCount(p []byte, recSize int) (int, []byte, error) {
	if len(p) < 4 {
		return 0, nil, fmt.Errorf("%w: batch payload is %d bytes, want >= 4", ErrMalformed, len(p))
	}
	n := binary.BigEndian.Uint32(p)
	if n == 0 || n > MaxOps {
		return 0, nil, fmt.Errorf("%w: batch count %d, want 1..%d", ErrMalformed, n, MaxOps)
	}
	if uint64(len(p)-4) != uint64(n)*uint64(recSize) {
		return 0, nil, fmt.Errorf("%w: batch of %d claims %d body bytes, has %d", ErrMalformed, n, uint64(n)*uint64(recSize), len(p)-4)
	}
	return int(n), p[4:], nil
}

// --- response payloads ------------------------------------------------

// AppendErrResp appends an error response payload: a non-OK status byte
// followed by the error message.
func AppendErrResp(dst []byte, st Status, msg string) []byte {
	if st == StatusOK {
		st = StatusErr
	}
	dst = append(dst, byte(st))
	return append(dst, msg...)
}

// AppendOKResp appends a StatusOK byte followed by the op-specific body
// (nil for Write/WriteBatch acks).
func AppendOKResp(dst []byte, body []byte) []byte {
	dst = append(dst, byte(StatusOK))
	return append(dst, body...)
}

// ParseResp splits a response payload into its status, the op-specific
// body (StatusOK), or the error message (otherwise).
func ParseResp(p []byte) (Status, []byte, string, error) {
	if len(p) < 1 {
		return 0, nil, "", fmt.Errorf("%w: empty response payload", ErrMalformed)
	}
	st := Status(p[0])
	if st == StatusOK {
		return st, p[1:], "", nil
	}
	if st != StatusClosed && st != StatusBad && st != StatusErr && st != StatusWrongEpoch && st != StatusRetry {
		return 0, nil, "", fmt.Errorf("%w: unknown status %d", ErrMalformed, st)
	}
	return st, nil, string(p[1:]), nil
}

// ParseReadResp decodes a Read response body (one block; aliases body).
func ParseReadResp(body []byte) ([]byte, error) {
	if len(body) != BlockBytes {
		return nil, fmt.Errorf("%w: Read response body is %d bytes, want %d", ErrMalformed, len(body), BlockBytes)
	}
	return body, nil
}

// AppendReadBatchResp appends a ReadBatch response body (count + blocks).
func AppendReadBatchResp(dst []byte, blocks [][]byte) ([]byte, error) {
	if len(blocks) == 0 || len(blocks) > MaxOps {
		return dst, fmt.Errorf("%w: batch of %d blocks, want 1..%d", ErrMalformed, len(blocks), MaxOps)
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(blocks)))
	for i, b := range blocks {
		if len(b) != BlockBytes {
			return dst, fmt.Errorf("%w: block %d is %d bytes, want %d", ErrMalformed, i, len(b), BlockBytes)
		}
		dst = append(dst, b...)
	}
	return dst, nil
}

// ParseReadBatchResp decodes a ReadBatch response body. Blocks alias body.
func ParseReadBatchResp(body []byte) ([][]byte, error) {
	n, rest, err := batchCount(body, BlockBytes)
	if err != nil {
		return nil, err
	}
	blocks := make([][]byte, n)
	for i := range blocks {
		blocks[i] = rest[i*BlockBytes : (i+1)*BlockBytes]
	}
	return blocks, nil
}

// --- migration --------------------------------------------------------

const (
	// MaxMigrateBlocks caps the sealed block records one OpMigrateBlocks
	// frame may carry (8 + 80*count must stay under MaxPayload).
	MaxMigrateBlocks = 1 << 15
	// MaxMetaChunk caps one OpMigrateMeta chunk; engine-state blobs larger
	// than this are split across frames (crypt.MaxBlobBytes far exceeds
	// one frame's payload cap).
	MaxMetaChunk = 1 << 21

	migrateBlockRec = 8 + 8 + BlockBytes // local id, seal epoch, ciphertext
)

// MigrateBegin opens a migration staging session on the target node. The
// geometry fields let the target refuse a shard that cannot belong to its
// store (wrong stride, capacity, or an epoch at or behind its own).
type MigrateBegin struct {
	Shard       uint32 // global shard index being migrated
	Stride      uint32 // total shard count S of the cluster geometry
	Blocks      uint64 // global store capacity in blocks
	ShardBlocks uint64 // blocks local to this shard (Router.ShardBlocks)
	Epoch       uint64 // sender's current geometry epoch
}

// AppendMigrateBeginReq appends a MigrateBegin request payload.
func AppendMigrateBeginReq(dst []byte, mb MigrateBegin) []byte {
	dst = binary.BigEndian.AppendUint32(dst, mb.Shard)
	dst = binary.BigEndian.AppendUint32(dst, mb.Stride)
	dst = binary.BigEndian.AppendUint64(dst, mb.Blocks)
	dst = binary.BigEndian.AppendUint64(dst, mb.ShardBlocks)
	return binary.BigEndian.AppendUint64(dst, mb.Epoch)
}

// ParseMigrateBeginReq decodes a MigrateBegin request payload.
func ParseMigrateBeginReq(p []byte) (MigrateBegin, error) {
	if len(p) != 32 {
		return MigrateBegin{}, fmt.Errorf("%w: MigrateBegin payload is %d bytes, want 32", ErrMalformed, len(p))
	}
	return MigrateBegin{
		Shard:       binary.BigEndian.Uint32(p),
		Stride:      binary.BigEndian.Uint32(p[4:]),
		Blocks:      binary.BigEndian.Uint64(p[8:]),
		ShardBlocks: binary.BigEndian.Uint64(p[16:]),
		Epoch:       binary.BigEndian.Uint64(p[24:]),
	}, nil
}

// MigrateBlock is one sealed block record in an OpMigrateBlocks frame:
// the shard-local id, the seal epoch (IV component), and the 64-byte
// ciphertext exactly as the backend stores it.
type MigrateBlock struct {
	Local uint64
	Epoch uint64
	Ct    []byte
}

// AppendMigrateBlocksReq appends an OpMigrateBlocks request payload
// (shard + count + fixed-width records). Snapshot streaming and the
// cutover tail use the same frame.
func AppendMigrateBlocksReq(dst []byte, shard uint32, recs []MigrateBlock) ([]byte, error) {
	if len(recs) == 0 || len(recs) > MaxMigrateBlocks {
		return dst, fmt.Errorf("%w: %d migrate block records, want 1..%d", ErrMalformed, len(recs), MaxMigrateBlocks)
	}
	dst = binary.BigEndian.AppendUint32(dst, shard)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(recs)))
	for i, r := range recs {
		if len(r.Ct) != BlockBytes {
			return dst, fmt.Errorf("%w: record %d ciphertext is %d bytes, want %d", ErrMalformed, i, len(r.Ct), BlockBytes)
		}
		dst = binary.BigEndian.AppendUint64(dst, r.Local)
		dst = binary.BigEndian.AppendUint64(dst, r.Epoch)
		dst = append(dst, r.Ct...)
	}
	return dst, nil
}

// ParseMigrateBlocksReq decodes an OpMigrateBlocks request payload. The
// returned ciphertexts alias p.
func ParseMigrateBlocksReq(p []byte) (uint32, []MigrateBlock, error) {
	if len(p) < 8 {
		return 0, nil, fmt.Errorf("%w: MigrateBlocks payload is %d bytes, want >= 8", ErrMalformed, len(p))
	}
	shard := binary.BigEndian.Uint32(p)
	n := binary.BigEndian.Uint32(p[4:])
	if n == 0 || n > MaxMigrateBlocks {
		return 0, nil, fmt.Errorf("%w: migrate block count %d, want 1..%d", ErrMalformed, n, MaxMigrateBlocks)
	}
	body := p[8:]
	if uint64(len(body)) != uint64(n)*migrateBlockRec {
		return 0, nil, fmt.Errorf("%w: %d migrate records claim %d body bytes, have %d", ErrMalformed, n, uint64(n)*migrateBlockRec, len(body))
	}
	recs := make([]MigrateBlock, n)
	for i := range recs {
		rec := body[i*migrateBlockRec:]
		recs[i] = MigrateBlock{
			Local: binary.BigEndian.Uint64(rec),
			Epoch: binary.BigEndian.Uint64(rec[8:]),
			Ct:    rec[16 : 16+BlockBytes],
		}
	}
	return shard, recs, nil
}

// AppendMigrateMetaReq appends an OpMigrateMeta request payload: one
// chunk of the sealed engine-state blob. total is the full blob length,
// off this chunk's offset; the target reassembles in order.
func AppendMigrateMetaReq(dst []byte, shard uint32, metaEpoch uint64, total, off uint32, chunk []byte) ([]byte, error) {
	if len(chunk) == 0 || len(chunk) > MaxMetaChunk {
		return dst, fmt.Errorf("%w: meta chunk of %d bytes, want 1..%d", ErrMalformed, len(chunk), MaxMetaChunk)
	}
	if uint64(off)+uint64(len(chunk)) > uint64(total) {
		return dst, fmt.Errorf("%w: meta chunk [%d,%d) exceeds total %d", ErrMalformed, off, int(off)+len(chunk), total)
	}
	dst = binary.BigEndian.AppendUint32(dst, shard)
	dst = binary.BigEndian.AppendUint64(dst, metaEpoch)
	dst = binary.BigEndian.AppendUint32(dst, total)
	dst = binary.BigEndian.AppendUint32(dst, off)
	return append(dst, chunk...), nil
}

// ParseMigrateMetaReq decodes an OpMigrateMeta request payload. The chunk
// aliases p.
func ParseMigrateMetaReq(p []byte) (shard uint32, metaEpoch uint64, total, off uint32, chunk []byte, err error) {
	if len(p) < 21 {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: MigrateMeta payload is %d bytes, want >= 21", ErrMalformed, len(p))
	}
	shard = binary.BigEndian.Uint32(p)
	metaEpoch = binary.BigEndian.Uint64(p[4:])
	total = binary.BigEndian.Uint32(p[12:])
	off = binary.BigEndian.Uint32(p[16:])
	chunk = p[20:]
	if len(chunk) > MaxMetaChunk || uint64(off)+uint64(len(chunk)) > uint64(total) {
		return 0, 0, 0, 0, nil, fmt.Errorf("%w: meta chunk [%d,%d) against total %d", ErrMalformed, off, int(off)+len(chunk), total)
	}
	return shard, metaEpoch, total, off, chunk, nil
}

// AppendMigrateCommitReq appends an OpMigrateCommit request payload.
func AppendMigrateCommitReq(dst []byte, shard uint32, newEpoch uint64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, shard)
	return binary.BigEndian.AppendUint64(dst, newEpoch)
}

// ParseMigrateCommitReq decodes an OpMigrateCommit request payload.
func ParseMigrateCommitReq(p []byte) (uint32, uint64, error) {
	if len(p) != 12 {
		return 0, 0, fmt.Errorf("%w: MigrateCommit payload is %d bytes, want 12", ErrMalformed, len(p))
	}
	return binary.BigEndian.Uint32(p), binary.BigEndian.Uint64(p[4:]), nil
}

// AppendMigrateAbortReq appends an OpMigrateAbort request payload.
func AppendMigrateAbortReq(dst []byte, shard uint32) []byte {
	return binary.BigEndian.AppendUint32(dst, shard)
}

// ParseMigrateAbortReq decodes an OpMigrateAbort request payload.
func ParseMigrateAbortReq(p []byte) (uint32, error) {
	if len(p) != 4 {
		return 0, fmt.Errorf("%w: MigrateAbort payload is %d bytes, want 4", ErrMalformed, len(p))
	}
	return binary.BigEndian.Uint32(p), nil
}

// maxMigrateAddr bounds the target address string in an OpMigrate admin
// request.
const maxMigrateAddr = 256

// AppendMigrateReq appends an OpMigrate admin request payload (shard +
// target node address).
func AppendMigrateReq(dst []byte, shard uint32, target string) ([]byte, error) {
	if target == "" || len(target) > maxMigrateAddr {
		return dst, fmt.Errorf("%w: migrate target address of %d bytes, want 1..%d", ErrMalformed, len(target), maxMigrateAddr)
	}
	dst = binary.BigEndian.AppendUint32(dst, shard)
	return append(dst, target...), nil
}

// ParseMigrateReq decodes an OpMigrate admin request payload.
func ParseMigrateReq(p []byte) (uint32, string, error) {
	if len(p) < 5 || len(p) > 4+maxMigrateAddr {
		return 0, "", fmt.Errorf("%w: Migrate payload is %d bytes, want 5..%d", ErrMalformed, len(p), 4+maxMigrateAddr)
	}
	return binary.BigEndian.Uint32(p), string(p[4:]), nil
}

// --- stats ------------------------------------------------------------

// LatBuckets is the bucket count of a service latency histogram in Stats.
// A compile-time assertion in the root package ties it to
// serve.LatBuckets.
const LatBuckets = 4096

// Stats is the server snapshot a Stats op returns: store geometry and
// limits (which double as the client's handshake — capacity, shards, and
// the server's per-frame batch cap), service counters and latency
// histograms, and the shard-level traffic counters.
type Stats struct {
	Blocks uint64
	Shards uint32

	DedupHits uint64
	// Lat is the service's four latency histograms in microseconds —
	// read, write, queue wait (submission -> worker pickup), execute
	// (worker pickup -> completion) — whole, so a client merges and
	// subtracts them exactly. The read and write counts are their N.
	Lat [4]stats.Counts

	EngineReads, EngineWrites uint64 // shard engine operations
	DRAMReads, DRAMWrites     uint64 // 64-byte line movements
	StashPeak                 uint32

	// MaxBatch is the largest batch frame (in ops) the server accepts;
	// clients size their coalescing windows and reject oversized explicit
	// batches against it. 0 = unknown (a pre-limit server).
	MaxBatch uint32

	// TreeTopHits counts protocol lines the resident tree-top cache
	// absorbed (bytes saved = 64 * TreeTopHits).
	TreeTopHits uint64

	// Epoch is the node's current geometry epoch (0 = standalone, no
	// placement manifest). FirstShard and OwnedShards describe the
	// contiguous shard range this node serves; a standalone server reports
	// 0..Shards. Clients pin the epoch at handshake and treat any later
	// change as a geometry change.
	Epoch       uint64
	FirstShard  uint32
	OwnedShards uint32

	// Sheds counts operations the service shed under overload (admission
	// deadline expired in the shard queue) instead of executing. Shed
	// requests are answered StatusRetry and never touch an engine.
	Sheds uint64
}

// AppendStats appends the Stats encoding: the fixed-width counters, then
// each histogram as N, sum, overflow, a pair count and its (uint16 bucket
// index, uint64 count) pairs.
func AppendStats(dst []byte, s Stats) []byte {
	dst = binary.BigEndian.AppendUint64(dst, s.Blocks)
	dst = binary.BigEndian.AppendUint32(dst, s.Shards)
	dst = binary.BigEndian.AppendUint64(dst, s.DedupHits)
	dst = binary.BigEndian.AppendUint64(dst, s.EngineReads)
	dst = binary.BigEndian.AppendUint64(dst, s.EngineWrites)
	dst = binary.BigEndian.AppendUint64(dst, s.DRAMReads)
	dst = binary.BigEndian.AppendUint64(dst, s.DRAMWrites)
	dst = binary.BigEndian.AppendUint32(dst, s.StashPeak)
	dst = binary.BigEndian.AppendUint32(dst, s.MaxBatch)
	dst = binary.BigEndian.AppendUint64(dst, s.TreeTopHits)
	dst = binary.BigEndian.AppendUint64(dst, s.Epoch)
	dst = binary.BigEndian.AppendUint32(dst, s.FirstShard)
	dst = binary.BigEndian.AppendUint32(dst, s.OwnedShards)
	dst = binary.BigEndian.AppendUint64(dst, s.Sheds)
	for _, h := range s.Lat {
		dst = binary.BigEndian.AppendUint64(dst, h.N)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(h.Sum))
		dst = binary.BigEndian.AppendUint64(dst, h.Overflow)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(h.Buckets)))
		for _, b := range h.Buckets {
			dst = binary.BigEndian.AppendUint16(dst, uint16(b.Index))
			dst = binary.BigEndian.AppendUint64(dst, b.Count)
		}
	}
	return dst
}

// statsFixedLen is the size of Stats' fixed-width counters.
const statsFixedLen = 8 + 4 + 8 + 4*8 + 4 + 4 + 8 + 8 + 4 + 4 + 8

// ParseStats decodes a Stats response body. It is strict: every histogram
// must list non-zero counts at increasing indices below LatBuckets that,
// with its overflow, add up to its N, and nothing may follow the last one.
func ParseStats(body []byte) (Stats, error) {
	if len(body) < statsFixedLen {
		return Stats{}, fmt.Errorf("%w: Stats body is %d bytes, want >= %d", ErrMalformed, len(body), statsFixedLen)
	}
	var s Stats
	s.Blocks = binary.BigEndian.Uint64(body)
	s.Shards = binary.BigEndian.Uint32(body[8:])
	s.DedupHits = binary.BigEndian.Uint64(body[12:])
	s.EngineReads = binary.BigEndian.Uint64(body[20:])
	s.EngineWrites = binary.BigEndian.Uint64(body[28:])
	s.DRAMReads = binary.BigEndian.Uint64(body[36:])
	s.DRAMWrites = binary.BigEndian.Uint64(body[44:])
	s.StashPeak = binary.BigEndian.Uint32(body[52:])
	s.MaxBatch = binary.BigEndian.Uint32(body[56:])
	s.TreeTopHits = binary.BigEndian.Uint64(body[60:])
	s.Epoch = binary.BigEndian.Uint64(body[68:])
	s.FirstShard = binary.BigEndian.Uint32(body[76:])
	s.OwnedShards = binary.BigEndian.Uint32(body[80:])
	s.Sheds = binary.BigEndian.Uint64(body[84:])
	p := body[statsFixedLen:]
	for i := range s.Lat {
		var err error
		if s.Lat[i], p, err = parseHist(p); err != nil {
			return Stats{}, fmt.Errorf("%w: latency histogram %d: %v", ErrMalformed, i, err)
		}
	}
	if len(p) != 0 {
		return Stats{}, fmt.Errorf("%w: %d bytes after the Stats body", ErrMalformed, len(p))
	}
	return s, nil
}

// parseHist decodes one histogram of a Stats body and returns the rest.
func parseHist(p []byte) (stats.Counts, []byte, error) {
	if len(p) < 26 {
		return stats.Counts{}, nil, errors.New("truncated header")
	}
	h := stats.Counts{
		N:        binary.BigEndian.Uint64(p),
		Sum:      math.Float64frombits(binary.BigEndian.Uint64(p[8:])),
		Overflow: binary.BigEndian.Uint64(p[16:]),
	}
	n := int(binary.BigEndian.Uint16(p[24:]))
	p = p[26:]
	if len(p) < n*10 {
		return stats.Counts{}, nil, fmt.Errorf("%d bucket pairs in %d bytes", n, len(p))
	}
	if n > 0 {
		h.Buckets = make([]stats.BucketCount, 0, n)
	}
	total := h.Overflow
	for k := range n {
		b := stats.BucketCount{Index: uint32(binary.BigEndian.Uint16(p[k*10:])), Count: binary.BigEndian.Uint64(p[k*10+2:])}
		switch {
		case b.Index >= LatBuckets || k > 0 && b.Index <= h.Buckets[k-1].Index:
			return stats.Counts{}, nil, fmt.Errorf("bucket index %d out of order or range", b.Index)
		case b.Count == 0 || total+b.Count < total:
			return stats.Counts{}, nil, fmt.Errorf("bucket %d count %d", b.Index, b.Count)
		}
		total += b.Count
		h.Buckets = append(h.Buckets, b)
	}
	if total != h.N {
		return stats.Counts{}, nil, fmt.Errorf("counts add up to %d, N is %d", total, h.N)
	}
	return h, p[n*10:], nil
}
