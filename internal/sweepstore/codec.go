package sweepstore

import (
	"encoding/binary"
	"hash/crc32"

	"repro/internal/experiments"
)

// Shard payload format (shards/<hh>/<key>.bin):
//
//	tag      4 bytes  "PFS1"
//	seed     varint   the shard's ShardSeed
//	shots    uvarint  the number of runs that follow
//	runs     shots × 9 varints, one per LERResult counter in field order
//	         (Windows, LogicalErrors, CorrectionGates, CorrectionSlots,
//	         OpsIssued, SlotsIssued, OpsExecuted, SlotsExecuted,
//	         InjectedErrors)
//	crc      4 bytes  little-endian CRC-32C of everything before it
//
// LER is not stored: it is m/R of the stored integers, and the reader
// recomputes it (experiments.NormalizeLERRuns), so the round trip is
// bit-identical by construction. Every varint is in its shortest form,
// so an accepted payload re-encodes to exactly its own bytes.

// shardTag opens every binary shard payload. A different format gets a
// different tag; an old or foreign file is a miss, never misread.
const shardTag = "PFS1"

// lerFields is the number of varint counters per stored run.
const lerFields = 9

// crcLen is the trailer size.
const crcLen = 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeShard serializes one shard's runs under seed.
func encodeShard(seed int64, runs []experiments.LERResult) []byte {
	// Most counters fit in a few bytes; append grows the rare wide one.
	buf := make([]byte, 0, len(shardTag)+2*binary.MaxVarintLen64+len(runs)*lerFields*3+crcLen)
	buf = append(buf, shardTag...)
	buf = binary.AppendVarint(buf, seed)
	buf = binary.AppendUvarint(buf, uint64(len(runs)))
	for i := range runs {
		r := &runs[i]
		for _, v := range [lerFields]int{
			r.Windows, r.LogicalErrors, r.CorrectionGates, r.CorrectionSlots,
			r.OpsIssued, r.SlotsIssued, r.OpsExecuted, r.SlotsExecuted,
			r.InjectedErrors,
		} {
			buf = binary.AppendVarint(buf, int64(v))
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// decodeShard parses a payload written by encodeShard and checks it
// against the caller's expected seed and shot count. It returns false
// (a cache miss) for a wrong tag or checksum, a header that disagrees
// with the expectation, a run count the remaining bytes cannot hold, a
// malformed or non-shortest varint, or trailing bytes. The header is
// checked before anything is allocated, and the run slice it allocates
// is bounded by len(blob)/lerFields, so a hostile file cannot make the
// reader allocate more than a constant times its own size.
func decodeShard(blob []byte, wantShots int, wantSeed int64) ([]experiments.LERResult, bool) {
	if len(blob) < len(shardTag)+crcLen || string(blob[:len(shardTag)]) != shardTag {
		return nil, false
	}
	body := blob[:len(blob)-crcLen]
	if binary.LittleEndian.Uint32(blob[len(body):]) != crc32.Checksum(body, castagnoli) {
		return nil, false
	}
	u, pos := uvarintAt(body, len(shardTag))
	if pos < 0 || unzigzag(u) != wantSeed {
		return nil, false
	}
	shots, pos := uvarintAt(body, pos)
	if pos < 0 || wantShots < 0 || shots != uint64(wantShots) || shots > uint64((len(body)-pos)/lerFields) {
		return nil, false
	}
	runs := make([]experiments.LERResult, wantShots)
	var f [lerFields]int
	for i := range runs {
		for k := range f {
			u, pos = uvarintAt(body, pos)
			v := unzigzag(u)
			if pos < 0 || int64(int(v)) != v {
				return nil, false
			}
			f[k] = int(v)
		}
		runs[i] = experiments.LERResult{
			Windows: f[0], LogicalErrors: f[1], CorrectionGates: f[2], CorrectionSlots: f[3],
			OpsIssued: f[4], SlotsIssued: f[5], OpsExecuted: f[6], SlotsExecuted: f[7],
			InjectedErrors: f[8],
		}
	}
	if pos != len(body) {
		return nil, false
	}
	experiments.NormalizeLERRuns(runs)
	return runs, true
}

// uvarintAt decodes the uvarint at buf[pos:] and returns it with the
// position after it, or a negative position if the bytes there are
// truncated, overflow, or are not the value's shortest encoding (a
// multi-byte varint whose last byte is zero). Rejecting longer
// encodings keeps the format canonical: one byte string per payload.
func uvarintAt(buf []byte, pos int) (uint64, int) {
	// Fast path: most counters fit one byte.
	if pos < len(buf) && buf[pos] < 0x80 {
		return uint64(buf[pos]), pos + 1
	}
	v, n := binary.Uvarint(buf[pos:])
	if n <= 0 || buf[pos+n-1] == 0 {
		return 0, -1
	}
	return v, pos + n
}

// unzigzag maps a zig-zag encoded uvarint back to its signed value, as
// binary.Varint does.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
