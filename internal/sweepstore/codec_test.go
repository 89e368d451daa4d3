package sweepstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
)

// legacyShard is the JSON shard payload older writers stored at
// shards/<k[:2]>/<k>.json.
type legacyShard struct {
	Seed  int64                   `json:"seed"`
	Shots int                     `json:"shots"`
	Runs  []experiments.LERResult `json:"runs"`
}

// codecRuns returns n deterministic runs with counters of mixed widths,
// LER normalized as a decoded payload carries it.
func codecRuns(n int) []experiments.LERResult {
	runs := make([]experiments.LERResult, n)
	for i := range runs {
		r := &runs[i]
		r.Windows = 100 + 37*i
		r.LogicalErrors = i % 7
		r.CorrectionGates = 3 * i
		r.CorrectionSlots = i
		r.OpsIssued = 1_000_000 + 4096*i
		r.SlotsIssued = 200_000 + i
		r.OpsExecuted = 990_000 + 4000*i
		r.SlotsExecuted = 199_000 + i
		r.InjectedErrors = 11 + i%64
	}
	experiments.NormalizeLERRuns(runs)
	return runs
}

// withCRC replaces a payload's trailer by the checksum of its body, so a
// test can forge a structurally bad payload that passes the CRC.
func withCRC(body []byte) []byte {
	out := append([]byte(nil), body...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, castagnoli))
}

func TestShardCodecRoundTrip(t *testing.T) {
	extreme := []experiments.LERResult{{
		Windows: math.MaxInt, LogicalErrors: math.MinInt, CorrectionGates: -1,
		OpsIssued: 1 << 40, InjectedErrors: 63,
	}}
	experiments.NormalizeLERRuns(extreme)
	for _, tc := range []struct {
		name string
		seed int64
		runs []experiments.LERResult
	}{
		{"empty", 0, []experiments.LERResult{}},
		{"one", -5, codecRuns(1)},
		{"wide", experiments.ShardSeed(2017, 3, 9), codecRuns(512)},
		{"extreme", math.MinInt64, extreme},
	} {
		blob := encodeShard(tc.seed, tc.runs)
		got, ok := decodeShard(blob, len(tc.runs), tc.seed)
		if !ok {
			t.Fatalf("%s: valid payload rejected", tc.name)
		}
		if !reflect.DeepEqual(got, tc.runs) {
			t.Fatalf("%s: round trip diverged", tc.name)
		}
		if again := encodeShard(tc.seed, got); !bytes.Equal(again, blob) {
			t.Fatalf("%s: re-encoding changed the payload", tc.name)
		}
	}
}

// TestShardCodecRejects: every malformed payload is a miss.
func TestShardCodecRejects(t *testing.T) {
	const seed = 77
	runs := codecRuns(3)
	blob := encodeShard(seed, runs)
	body := blob[:len(blob)-crcLen]
	header := append([]byte(shardTag), binary.AppendVarint(nil, seed)...)

	cases := map[string]struct {
		blob        []byte
		shots, seed int64
	}{
		"wrong seed":         {blob, 3, seed + 1},
		"wrong shots":        {blob, 2, seed},
		"negative shots":     {blob, -1, seed},
		"truncated":          {blob[:len(blob)-1], 3, seed},
		"no trailer":         {body, 3, seed},
		"empty":              {nil, 0, 0},
		"tag only":           {[]byte(shardTag), 0, 0},
		"trailing byte":      {withCRC(append(append([]byte(nil), body...), 0)), 3, seed},
		"bad tag":            {withCRC(append([]byte("PFS0"), body[len(shardTag):]...)), 3, seed},
		"runs missing":       {withCRC(append(append([]byte(nil), header...), 3)), 3, seed},
		"count beyond bytes": {withCRC(binary.AppendUvarint(append([]byte(nil), header...), 1<<40)), 1 << 40, seed},
		"overlong varint":    {withCRC(append(append([]byte(nil), header...), 1, 0x80, 0x00, 0, 0, 0, 0, 0, 0, 0, 0)), 1, seed},
		"legacy JSON":        {mustJSON(t, legacyShard{Seed: seed, Shots: 3, Runs: runs}), 3, seed},
		"corrupt":            {[]byte("{corrupt"), 3, seed},
	}
	if _, ok := decodeShard(blob, 3, seed); !ok {
		t.Fatal("control payload rejected")
	}
	for name, tc := range cases {
		if _, ok := decodeShard(tc.blob, int(tc.shots), tc.seed); ok {
			t.Errorf("%s: accepted", name)
		}
	}

	// Every single-byte change anywhere in a payload is caught: in the
	// tag by the tag check, in the body or trailer by the CRC (CRC-32C
	// detects every error burst of up to 32 bits).
	for _, p := range []struct {
		seed int64
		runs []experiments.LERResult
	}{{-3, codecRuns(1)}, {seed, runs}} {
		mut := encodeShard(p.seed, p.runs)
		if _, ok := decodeShard(mut, len(p.runs), p.seed); !ok {
			t.Fatal("control payload rejected")
		}
		for i := range mut {
			for x := 1; x < 256; x++ {
				mut[i] ^= byte(x)
				if _, ok := decodeShard(mut, len(p.runs), p.seed); ok {
					t.Fatalf("byte %d ^ %#x accepted", i, x)
				}
				mut[i] ^= byte(x)
			}
		}
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestCorruptShardIsMiss: a payload on disk whose count changed but
// whose checksum did not is a miss, and the store counts it as one.
func TestCorruptShardIsMiss(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc := benchShardConfig(0)
	key, err := ShardKey(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutShard(key, sc.Seed, benchRuns()); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(st.shardPath(key))
	if err != nil {
		t.Fatal(err)
	}
	// The LogicalErrors counter (4, zig-zag 8) follows the two-byte
	// Windows varint of the only run: 4 becomes 5.
	at := len(shardTag) + len(binary.AppendVarint(nil, sc.Seed)) + 1 + 2
	if blob[at] != 8 {
		t.Fatalf("byte %d is %d, want the LogicalErrors varint 8", at, blob[at])
	}
	blob[at] = 10
	if err := os.WriteFile(st.shardPath(key), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.GetShard(key, 1, sc.Seed); ok {
		t.Fatal("payload with a changed count and a stale checksum served as a hit")
	}
	if s := st.Stats(); s.ShardHits != 0 || s.ShardMisses != 1 {
		t.Errorf("stats = %+v, want 0 hits, 1 miss", s)
	}
}

// TestLegacyJSONShardMigration: a store holding only JSON shard payloads
// from an older writer serves none of them. RunCached recomputes every
// shard to bit-identical runs, the legacy files stay counted in the
// shard footprint, and GC evicts them like any other shard.
func TestLegacyJSONShardMigration(t *testing.T) {
	cfg := experiments.SweepConfig{
		Engine:           experiments.EngineNameFrameSim,
		PERs:             []float64{5e-3, 8e-3},
		Samples:          70, // two words per point: one full, one partial
		MaxLogicalErrors: 3,
		MaxWindows:       2000,
		BaseSeed:         31,
		Workers:          2,
	}
	fresh, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunCached(context.Background(), fresh, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := experiments.SpecOf(cfg).Normalized()
	_, keys, err := CacheOptions(fresh, spec, nil)
	if err != nil {
		t.Fatal(err)
	}

	// A store directory as an older binary left it: one JSON payload per
	// shard at shards/<k[:2]>/<k>.json, nothing else.
	dir := t.TempDir()
	wantRuns := make([][]experiments.LERResult, len(keys))
	for i, key := range keys {
		sh := spec.Shard(i)
		runs, ok := fresh.GetShard(key, sh.Count, sh.Seed)
		if !ok {
			t.Fatalf("shard %d missing from the fresh store", i)
		}
		wantRuns[i] = runs
		path := filepath.Join(dir, "shards", key[:2], key+".json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, mustJSON(t, legacyShard{Seed: sh.Seed, Shots: sh.Count, Runs: runs}), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, disk := st.Stats().ShardBytes, shardBytesOnDisk(t, dir); got != disk || disk == 0 {
		t.Fatalf("Open counted %d shard bytes, %d on disk", got, disk)
	}
	var hits atomic.Int64
	got, err := RunCached(context.Background(), st, cfg, func(_ experiments.Shard, cached bool) {
		if cached {
			hits.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits.Load() != 0 || st.Stats().ShardMisses != int64(len(keys)) {
		t.Fatalf("legacy payloads served: %d hits, stats %+v", hits.Load(), st.Stats())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recomputed sweep diverged from the original")
	}
	for i, key := range keys {
		sh := spec.Shard(i)
		runs, ok := st.GetShard(key, sh.Count, sh.Seed)
		if !ok || !reflect.DeepEqual(runs, wantRuns[i]) {
			t.Fatalf("shard %d: recomputed runs diverged (ok=%v)", i, ok)
		}
	}
	if got, disk := st.Stats().ShardBytes, shardBytesOnDisk(t, dir); got != disk {
		t.Fatalf("ShardBytes %d, %d bytes on disk under shards/", got, disk)
	}
	res, err := st.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != 2*len(keys) || res.RemainingBytes != 0 {
		t.Fatalf("GC(0) = %+v, want all %d legacy and current payloads evicted", res, 2*len(keys))
	}
	if disk := shardBytesOnDisk(t, dir); disk != 0 {
		t.Fatalf("%d shard bytes left on disk after GC(0)", disk)
	}
}

// shardBytesOnDisk sums the sizes of every regular file under shards/.
func shardBytesOnDisk(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	err := filepath.WalkDir(filepath.Join(dir, "shards"), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		total += fi.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return total
}

// FuzzDecodeShard: the store-file decoder never panics, never allocates
// more than a constant times its input, and accepts only canonical
// payloads — an accepted input re-encodes to itself, and no
// single-byte change of it is accepted.
func FuzzDecodeShard(f *testing.F) {
	for _, n := range []int{0, 1, 512} {
		seed := experiments.ShardSeed(2017, 0, n)
		f.Add(encodeShard(seed, codecRuns(n)), seed, n)
	}
	f.Add(mustJSON(f, legacyShard{Seed: 9, Shots: 1, Runs: codecRuns(1)}), int64(9), 1)
	f.Add([]byte("{corrupt"), int64(0), 0)
	f.Fuzz(func(t *testing.T, data []byte, seed int64, shots int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runs, ok := decodeShard(data, shots, seed)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if !ok {
			return
		}
		if len(runs) != shots {
			t.Fatalf("accepted %d runs, want %d", len(runs), shots)
		}
		if again := encodeShard(seed, runs); !bytes.Equal(again, data) {
			t.Fatal("accepted payload does not re-encode to itself")
		}
		mut := append([]byte(nil), data...)
		for i := range mut {
			x := byte(1 + (i*37)%255)
			mut[i] ^= x
			if _, ok := decodeShard(mut, shots, seed); ok {
				t.Fatalf("byte %d ^ %#x accepted", i, x)
			}
			mut[i] ^= x
		}
	})
}
