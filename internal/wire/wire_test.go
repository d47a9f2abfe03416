package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"palermo/internal/stats"
)

func block(fill byte) []byte { return bytes.Repeat([]byte{fill}, BlockBytes) }

func roundTripFrame(t *testing.T, op byte, reqID uint64, payload []byte) Frame {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, op, reqID, payload); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Op != op || f.ReqID != reqID || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("frame round trip mutated: %+v", f)
	}
	return f
}

func TestFrameRoundTrip(t *testing.T) {
	roundTripFrame(t, OpRead, 0, AppendReadReq(nil, 42))
	roundTripFrame(t, OpStats, ^uint64(0), nil)
	roundTripFrame(t, Resp(OpWrite), 7, AppendOKResp(nil, nil))
}

func TestReadFrameErrors(t *testing.T) {
	good := AppendFrame(nil, OpRead, 1, AppendReadReq(nil, 5))
	// The allocating decoder and the pooled one over a bufio stream
	// classify every stream alike.
	var pool BufPool
	for name, read := range map[string]func([]byte) error{
		"ReadFrame": func(b []byte) error {
			_, err := ReadFrame(bytes.NewReader(b))
			return err
		},
		"ReadFrameBuf": func(b []byte) error {
			_, fb, err := ReadFrameBuf(bufio.NewReader(bytes.NewReader(b)), &pool)
			pool.Put(fb)
			return err
		},
	} {
		// Clean EOF between frames is io.EOF, not a typed corruption error.
		if err := read(nil); err != io.EOF {
			t.Fatalf("%s: empty stream: %v", name, err)
		}
		// Truncation inside the header and inside the payload.
		for _, cut := range []int{1, HeaderLen - 1, HeaderLen + 3} {
			if err := read(good[:cut]); !errors.Is(err, ErrTruncated) {
				t.Fatalf("%s: cut at %d: %v", name, cut, err)
			}
		}
		// Corrupt magic.
		bad := append([]byte(nil), good...)
		bad[0] = 'X'
		if err := read(bad); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("%s: bad magic accepted", name)
		}
		// Unsupported version.
		bad = append([]byte(nil), good...)
		bad[2] = 9
		if err := read(bad); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("%s: bad version accepted", name)
		}
		// Oversized length field must be rejected before any allocation.
		bad = append([]byte(nil), good...)
		binary.BigEndian.PutUint32(bad[12:16], MaxPayload+1)
		if err := read(bad); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("%s: oversized length accepted", name)
		}
	}
	if err := WriteFrame(io.Discard, OpRead, 1, make([]byte, MaxPayload+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatal("oversized write accepted")
	}
}

func TestRequestPayloadRoundTrips(t *testing.T) {
	if id, err := ParseReadReq(AppendReadReq(nil, 99)); err != nil || id != 99 {
		t.Fatalf("read req: %d %v", id, err)
	}
	id, blk, err := ParseWriteReq(AppendWriteReq(nil, 3, block(0xAB)))
	if err != nil || id != 3 || !bytes.Equal(blk, block(0xAB)) {
		t.Fatalf("write req: %d %v", id, err)
	}

	ids := []uint64{0, 1, ^uint64(0), 42}
	p, err := AppendReadBatchReq(nil, ids)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseReadBatchReq(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("read batch id %d mutated", i)
		}
	}

	blocks := [][]byte{block(1), block(2), block(3), block(4)}
	p, err = AppendWriteBatchReq(nil, ids, blocks)
	if err != nil {
		t.Fatal(err)
	}
	gotIDs, gotBlocks, err := ParseWriteBatchReq(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if gotIDs[i] != ids[i] || !bytes.Equal(gotBlocks[i], blocks[i]) {
			t.Fatalf("write batch entry %d mutated", i)
		}
	}
}

func TestBatchBoundaries(t *testing.T) {
	// Empty and oversize batches are rejected at encode time.
	if _, err := AppendReadBatchReq(nil, nil); !errors.Is(err, ErrMalformed) {
		t.Fatal("empty batch accepted")
	}
	if _, err := AppendReadBatchReq(nil, make([]uint64, MaxOps+1)); !errors.Is(err, ErrMalformed) {
		t.Fatal("oversize batch accepted")
	}
	if _, err := AppendWriteBatchReq(nil, []uint64{1, 2}, [][]byte{block(0)}); !errors.Is(err, ErrMalformed) {
		t.Fatal("mismatched batch accepted")
	}
	if _, err := AppendWriteBatchReq(nil, []uint64{1}, [][]byte{[]byte("short")}); !errors.Is(err, ErrMalformed) {
		t.Fatal("short block accepted")
	}
	// MaxOps exactly is legal.
	big := make([]uint64, MaxOps)
	p, err := AppendReadBatchReq(nil, big)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ParseReadBatchReq(p); err != nil || len(got) != MaxOps {
		t.Fatalf("MaxOps batch: %d %v", len(got), err)
	}
	// A count prefix inconsistent with the body length is malformed.
	binary.BigEndian.PutUint32(p, MaxOps-1)
	if _, err := ParseReadBatchReq(p); !errors.Is(err, ErrMalformed) {
		t.Fatal("inconsistent count accepted")
	}
}

func TestResponses(t *testing.T) {
	st, body, _, err := ParseResp(AppendOKResp(nil, block(7)))
	if err != nil || st != StatusOK {
		t.Fatalf("ok resp: %v %v", st, err)
	}
	if blk, err := ParseReadResp(body); err != nil || !bytes.Equal(blk, block(7)) {
		t.Fatal("read resp body mutated")
	}

	st, _, msg, err := ParseResp(AppendErrResp(nil, StatusClosed, "drained"))
	if err != nil || st != StatusClosed || msg != "drained" {
		t.Fatalf("err resp: %v %q %v", st, msg, err)
	}
	// A StatusOK passed to AppendErrResp must not forge an OK response.
	st, _, _, err = ParseResp(AppendErrResp(nil, StatusOK, "oops"))
	if err != nil || st == StatusOK {
		t.Fatalf("forged OK: %v %v", st, err)
	}
	if _, _, _, err := ParseResp(nil); !errors.Is(err, ErrMalformed) {
		t.Fatal("empty response accepted")
	}
	if _, _, _, err := ParseResp([]byte{42}); !errors.Is(err, ErrMalformed) {
		t.Fatal("unknown status accepted")
	}

	blocks := [][]byte{block(9), block(8)}
	rb, err := AppendReadBatchResp(nil, blocks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseReadBatchResp(rb)
	if err != nil || len(got) != 2 || !bytes.Equal(got[1], block(8)) {
		t.Fatalf("read batch resp: %v", err)
	}
}

// sampleStats is a snapshot with every field set and histograms that use
// the bucketed range, the overflow, and neither.
func sampleStats() Stats {
	return Stats{
		Blocks: 1 << 20, Shards: 8, DedupHits: 4,
		Lat: [4]stats.Counts{
			{N: 101, Sum: 1262.5, Overflow: 1, Buckets: []stats.BucketCount{{Index: 1, Count: 60}, {Index: 19, Count: 40}}},
			{N: 17, Sum: 344.25, Buckets: []stats.BucketCount{{Index: 0, Count: 17}}},
			{N: 3, Sum: 90000, Overflow: 3},
			{},
		},
		EngineReads: 97, EngineWrites: 17,
		DRAMReads: 12345, DRAMWrites: 6789, StashPeak: 33,
		MaxBatch:    4096,
		TreeTopHits: 543210,
		Epoch:       3, FirstShard: 2, OwnedShards: 4,
		Sheds: 1 << 20,
	}
}

func TestStatsRoundTrip(t *testing.T) {
	in := sampleStats()
	out, err := ParseStats(AppendStats(nil, in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("stats round trip mutated:\n in %+v\nout %+v", in, out)
	}
	if _, err := ParseStats([]byte{1, 2, 3}); !errors.Is(err, ErrMalformed) {
		t.Fatal("short stats accepted")
	}
}

// TestParseStatsStrict: a Stats body comes off the network, so every
// histogram that does not add up, and every body that is cut short or
// runs long, is ErrMalformed.
func TestParseStatsStrict(t *testing.T) {
	with := func(h stats.Counts) []byte {
		s := sampleStats()
		s.Lat[3] = h // the last histogram: its end is the body's
		return AppendStats(nil, s)
	}
	pairs := func(idxCount ...uint64) []stats.BucketCount {
		var out []stats.BucketCount
		for i := 0; i < len(idxCount); i += 2 {
			out = append(out, stats.BucketCount{Index: uint32(idxCount[i]), Count: idxCount[i+1]})
		}
		return out
	}
	body := AppendStats(nil, sampleStats())
	onePair := with(stats.Counts{N: 2, Buckets: pairs(1, 2)})
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"fixed part cut", body[:statsFixedLen-1]},
		{"histogram header cut", body[:statsFixedLen+25]},
		{"last pair cut", onePair[:len(onePair)-1]},
		{"trailing byte", append(append([]byte(nil), body...), 0)},
		{"pair count past the body", onePair[:len(onePair)-10]},
		{"decreasing index", with(stats.Counts{N: 5, Buckets: pairs(7, 3, 1, 2)})},
		{"repeated index", with(stats.Counts{N: 5, Buckets: pairs(1, 3, 1, 2)})},
		{"index at the bucket count", with(stats.Counts{N: 1, Buckets: pairs(LatBuckets, 1)})},
		{"index past the bucket count", with(stats.Counts{N: 1, Buckets: pairs(0xFFFF, 1)})},
		{"zero count", with(stats.Counts{N: 2, Buckets: pairs(1, 2, 3, 0)})},
		{"counts short of N", with(stats.Counts{N: 6, Overflow: 1, Buckets: pairs(1, 2, 7, 2)})},
		{"counts past N", with(stats.Counts{N: 4, Overflow: 1, Buckets: pairs(1, 2, 7, 2)})},
		{"N without samples", with(stats.Counts{N: 1})},
		{"counts wrap to N", with(stats.Counts{N: 1, Overflow: 2, Buckets: pairs(1, math.MaxUint64)})},
	} {
		if _, err := ParseStats(tc.body); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: ParseStats = %v, want ErrMalformed", tc.name, err)
		}
	}
	for n := range len(onePair) {
		if _, err := ParseStats(onePair[:n]); !errors.Is(err, ErrMalformed) {
			t.Fatalf("body cut to %d of %d bytes: ParseStats = %v, want ErrMalformed", n, len(onePair), err)
		}
	}
}

// FuzzStatsRoundTrip: AppendStats then ParseStats is the identity over
// any histogram contents the service can produce.
func FuzzStatsRoundTrip(f *testing.F) {
	f.Add(uint64(1<<20), uint64(0), uint64(0), 0.0, []byte{})
	f.Add(uint64(8), uint64(5), uint64(3), 1262.5, []byte{1, 60, 18, 40, 0, 0, 0xFF, 0xFF})
	f.Add(^uint64(0), ^uint64(0), uint64(1<<40), 9e18, bytes.Repeat([]byte{0, 1}, 600))
	f.Fuzz(func(t *testing.T, blocks, sheds, overflow uint64, sum float64, data []byte) {
		if math.IsNaN(sum) {
			sum = 0
		}
		in := Stats{Blocks: blocks, Sheds: sheds, DedupHits: overflow}
		// data is a stream of (index step, count) byte pairs dealt to the
		// four histograms in turn; a step of 0 still moves one bucket on.
		next := [4]uint32{}
		for k := 0; k+1 < len(data); k += 2 {
			h := &in.Lat[k/2%4]
			idx := next[k/2%4] + uint32(data[k])
			if idx >= LatBuckets {
				continue
			}
			next[k/2%4] = idx + 1
			c := uint64(data[k+1]) + 1
			h.Buckets = append(h.Buckets, stats.BucketCount{Index: idx, Count: c})
			h.N += c
		}
		for i := range in.Lat {
			in.Lat[i].Overflow = overflow >> (2*i + 1) // N cannot wrap
			in.Lat[i].N += in.Lat[i].Overflow
			in.Lat[i].Sum = sum * float64(i+1)
		}
		body := AppendStats(nil, in)
		out, err := ParseStats(body)
		if err != nil {
			t.Fatalf("ParseStats of an encoded snapshot: %v", err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("stats round trip mutated:\n in %+v\nout %+v", in, out)
		}
	})
}

// FuzzDecodeFrame feeds arbitrary bytes to the frame and payload decoders:
// they must return typed errors, never panic, and never over-allocate.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(AppendFrame(nil, OpRead, 1, AppendReadReq(nil, 5)))
	f.Add(AppendFrame(nil, OpWrite, 2, AppendWriteReq(nil, 3, block(1))))
	if p, err := AppendReadBatchReq(nil, []uint64{1, 2, 3}); err == nil {
		f.Add(AppendFrame(nil, OpReadBatch, 3, p))
	}
	f.Add(AppendFrame(nil, Resp(OpStats), 4, AppendOKResp(nil, AppendStats(nil, Stats{Blocks: 8}))))
	f.Add(AppendFrame(nil, Resp(OpWrite), 5, AppendErrResp(nil, StatusRetry, "request shed under overload")))
	// Version-6 stats bodies whose histograms carry buckets and overflow.
	f.Add(AppendFrame(nil, Resp(OpStats), 6, AppendOKResp(nil, AppendStats(nil, sampleStats()))))
	big := sampleStats()
	for i := range uint32(LatBuckets) {
		big.Lat[3].Buckets = append(big.Lat[3].Buckets, stats.BucketCount{Index: i, Count: 1})
	}
	big.Lat[3].N = LatBuckets
	f.Add(AppendFrame(nil, Resp(OpStats), 7, AppendOKResp(nil, AppendStats(nil, big))))
	f.Add([]byte("PL\x01\x01garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		var pool BufPool
		pooled, _, errBuf := ReadFrameBuf(bufio.NewReader(bytes.NewReader(data)), &pool)
		if kind(err) != kind(errBuf) {
			t.Fatalf("the decoders disagree: ReadFrame %v, ReadFrameBuf %v", err, errBuf)
		}
		if err != nil {
			if err != io.EOF && !strings.HasPrefix(err.Error(), "wire: ") {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if pooled.Op != fr.Op || pooled.ReqID != fr.ReqID || !bytes.Equal(pooled.Payload, fr.Payload) {
			t.Fatalf("the decoders disagree: ReadFrame %+v, ReadFrameBuf %+v", fr, pooled)
		}
		// Whatever op the frame claims, every payload parser must be total.
		ParseReadReq(fr.Payload)
		ParseWriteReq(fr.Payload)
		ParseReadBatchReq(fr.Payload)
		ParseWriteBatchReq(fr.Payload)
		if st, body, _, err := ParseResp(fr.Payload); err == nil && st == StatusOK {
			ParseReadResp(body)
			ParseReadBatchResp(body)
			ParseStats(body)
		}
	})
}

// kind returns the sentinel a decode error wraps: io.EOF, one of the typed
// errors, or nil.
func kind(err error) error {
	if w := errors.Unwrap(err); w != nil {
		return w
	}
	return err
}

// FuzzPayloadRoundTrip checks encode∘decode is the identity over all op
// codes and boundary sizes the fuzzer reaches.
func FuzzPayloadRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint16(1), byte(0))
	f.Add(^uint64(0), uint16(0xFFFF), byte(0xFF))
	f.Add(uint64(1<<40), uint16(7), byte(3))
	f.Fuzz(func(t *testing.T, base uint64, n uint16, fill byte) {
		if n == 0 {
			n = 1
		}
		ids := make([]uint64, n)
		blocks := make([][]byte, n)
		for i := range ids {
			ids[i] = base + uint64(i)
			blocks[i] = block(fill + byte(i))
		}
		p, err := AppendReadBatchReq(nil, ids)
		if err != nil {
			t.Fatal(err)
		}
		gotIDs, err := ParseReadBatchReq(p)
		if err != nil {
			t.Fatal(err)
		}
		wp, err := AppendWriteBatchReq(nil, ids, blocks)
		if err != nil {
			t.Fatal(err)
		}
		wIDs, wBlocks, err := ParseWriteBatchReq(wp)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ids {
			if gotIDs[i] != ids[i] || wIDs[i] != ids[i] || !bytes.Equal(wBlocks[i], blocks[i]) {
				t.Fatalf("entry %d mutated", i)
			}
		}
		// One full frame round trip through the stream layer.
		fr := roundTripFrameF(t, OpReadBatch, base, p)
		if !bytes.Equal(fr.Payload, p) {
			t.Fatal("frame payload mutated")
		}
	})
}

func roundTripFrameF(t *testing.T, op byte, reqID uint64, payload []byte) Frame {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, op, reqID, payload); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Op != op || f.ReqID != reqID {
		t.Fatalf("frame header mutated: %+v", f)
	}
	return f
}

// BenchmarkReadFrame measures the per-frame receive cost of the
// allocating decoder (the baseline the pooled variant is compared to).
func BenchmarkReadFrame(b *testing.B) {
	one := AppendFrame(nil, OpWrite, 7, AppendWriteReq(nil, 42, make([]byte, BlockBytes)))
	stream := bytes.Repeat(one, 1024)
	r := bytes.NewReader(stream)
	b.SetBytes(int64(len(one)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Len() < len(one) {
			r.Reset(stream)
		}
		if _, err := ReadFrame(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadFrameBuf is the pooled receive path the client and
// netserve run: the header is parsed in the bufio buffer and the payload
// buffer is recycled frame to frame (TestReadFrameBufAllocs pins 0
// allocs/op).
func BenchmarkReadFrameBuf(b *testing.B) {
	one := AppendFrame(nil, OpWrite, 7, AppendWriteReq(nil, 42, make([]byte, BlockBytes)))
	next := frameStream(one)
	var pool BufPool
	b.SetBytes(int64(len(one)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, fb, err := ReadFrameBuf(next(), &pool)
		if err != nil {
			b.Fatal(err)
		}
		pool.Put(fb)
	}
}

// TestReadFrameBufAllocs: once its pool is warm, the pooled receive path
// allocates nothing per frame, header included.
func TestReadFrameBufAllocs(t *testing.T) {
	one := AppendFrame(nil, OpWrite, 7, AppendWriteReq(nil, 42, make([]byte, BlockBytes)))
	next := frameStream(one)
	var pool BufPool
	read := func() {
		_, fb, err := ReadFrameBuf(next(), &pool)
		if err != nil {
			t.Fatal(err)
		}
		pool.Put(fb)
	}
	for i := 0; i < 64; i++ {
		read()
	}
	if allocs := testing.AllocsPerRun(1000, read); allocs != 0 {
		t.Errorf("ReadFrameBuf allocates %.1f times per frame, want 0", allocs)
	}
}

// frameStream returns a function that yields a bufio stream of copies of
// one frame, rewinding it to the start before it runs dry.
func frameStream(one []byte) func() *bufio.Reader {
	stream := bytes.Repeat(one, 1024)
	r := bytes.NewReader(stream)
	br := bufio.NewReader(r)
	return func() *bufio.Reader {
		if r.Len()+br.Buffered() < len(one) {
			r.Reset(stream)
			br.Reset(r)
		}
		return br
	}
}
