package layers

import (
	"bytes"
	"fmt"
	"time"

	"palermo/internal/wire"
)

// WireCost is what one block operation costs on the wire when k of them
// share a ReadBatch frame: encoding and parsing of request and response,
// and the bytes both frames put on the socket.
type WireCost struct {
	EncodeNs, ParseNs, Bytes float64
}

// WireRoundTrip encodes and parses n request/response frame pairs of k
// reads each and returns the mean cost per block operation.
func WireRoundTrip(k, n int) (WireCost, error) {
	ids := make([]uint64, k)
	blocks := make([][]byte, k)
	for i := range ids {
		ids[i] = uint64(i) * 977
		blocks[i] = make([]byte, wire.BlockBytes)
	}
	var req, resp, payload, body []byte
	var err error
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if payload, err = wire.AppendReadBatchReq(payload[:0], ids); err != nil {
			return WireCost{}, err
		}
		req = wire.AppendFrame(req[:0], wire.OpReadBatch, uint64(i), payload)
		if body, err = wire.AppendReadBatchResp(body[:0], blocks); err != nil {
			return WireCost{}, err
		}
		payload = wire.AppendOKResp(payload[:0], body)
		resp = wire.AppendFrame(resp[:0], wire.Resp(wire.OpReadBatch), uint64(i), payload)
	}
	t1 := time.Now()
	var rd bytes.Reader
	for i := 0; i < n; i++ {
		rd.Reset(req)
		f, err := wire.ReadFrame(&rd)
		if err != nil {
			return WireCost{}, err
		}
		got, err := wire.ParseReadBatchReq(f.Payload)
		if err != nil {
			return WireCost{}, err
		}
		rd.Reset(resp)
		if f, err = wire.ReadFrame(&rd); err != nil {
			return WireCost{}, err
		}
		_, rbody, _, err := wire.ParseResp(f.Payload)
		if err != nil {
			return WireCost{}, err
		}
		out, err := wire.ParseReadBatchResp(rbody)
		if err != nil {
			return WireCost{}, err
		}
		if len(got) != k || len(out) != k {
			return WireCost{}, fmt.Errorf("layers: wire round trip returned %d ids and %d blocks, want %d", len(got), len(out), k)
		}
	}
	t2 := time.Now()
	ops := float64(n * k)
	return WireCost{
		EncodeNs: float64(t1.Sub(t0)) / ops,
		ParseNs:  float64(t2.Sub(t1)) / ops,
		Bytes:    float64(len(req)+len(resp)) / float64(k),
	}, nil
}
