package blockfile

import (
	"encoding/binary"
	"hash/crc32"

	"palermo/internal/backend"
	"palermo/internal/crypt"
)

// SlotBytes is the fixed on-disk slot size: one logical disk sector. A
// block's slot offset is local × SlotBytes, so addressing needs no index structure
// and a slot rewrite never touches a neighbor.
const SlotBytes = 512

const (
	slotMagic = "PBSL"
	// Slot layout: magic(4) | reserved(4, zero) | local(8) | epoch(8) |
	// ct(64) | crc32(4, over everything before it); the rest of the slot
	// is zero padding to the sector boundary.
	slotUsed = 4 + 4 + 8 + 8 + crypt.BlockBytes + 4
)

// slotStatus classifies one slot image during the recovery scan.
type slotStatus uint8

const (
	// slotEmpty: every byte zero — the block was never written (sparse
	// file holes read back as zeros).
	slotEmpty slotStatus = iota
	// slotValid: header, id, and CRC all verify.
	slotValid
	// slotTorn: nonzero bytes that do not verify — a write a power loss
	// cut mid-sector, or external corruption. Recovery discards the
	// whole slot under the covering epoch reservation.
	slotTorn
)

// encodeSlot frames one sealed block into dst[:SlotBytes]. The embedded
// local id guards against offset-arithmetic bugs and cross-linked
// sectors: a slot that verifies but carries the wrong id is treated as
// torn, never served as another block's payload.
func encodeSlot(dst []byte, local uint64, sb backend.Sealed) {
	for i := range dst[:SlotBytes] {
		dst[i] = 0
	}
	copy(dst[0:4], slotMagic)
	binary.LittleEndian.PutUint64(dst[8:16], local)
	binary.LittleEndian.PutUint64(dst[16:24], sb.Epoch)
	copy(dst[24:24+crypt.BlockBytes], sb.Ct)
	binary.LittleEndian.PutUint32(dst[slotUsed-4:slotUsed], crc32.ChecksumIEEE(dst[:slotUsed-4]))
}

// decodeSlot parses and verifies one slot image against the local id its
// offset implies. buf may be shorter than SlotBytes (a file truncated
// mid-slot); a short or otherwise unverifiable nonzero image is torn.
// The sealed ciphertext is copied out, never aliased into buf.
func decodeSlot(buf []byte, local uint64) (backend.Sealed, slotStatus) {
	n := len(buf)
	if n > SlotBytes {
		n = SlotBytes
		buf = buf[:SlotBytes]
	}
	if allZero(buf) {
		return backend.Sealed{}, slotEmpty
	}
	if n < slotUsed || string(buf[0:4]) != slotMagic {
		return backend.Sealed{}, slotTorn
	}
	if crc32.ChecksumIEEE(buf[:slotUsed-4]) != binary.LittleEndian.Uint32(buf[slotUsed-4:slotUsed]) {
		return backend.Sealed{}, slotTorn
	}
	if binary.LittleEndian.Uint64(buf[8:16]) != local {
		return backend.Sealed{}, slotTorn
	}
	ct := append([]byte(nil), buf[24:24+crypt.BlockBytes]...)
	return backend.Sealed{Ct: ct, Epoch: binary.LittleEndian.Uint64(buf[16:24])}, slotValid
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
