// Store garbage collection: a fleet-shared shard cache must not grow
// without limit, so the store tracks the byte footprint of its shards/
// tree and can evict least-recently-accessed shards down to a bound.
//
// Only shard files are evictable. The spec and result checkpoints under
// jobs/ are pins: they are what makes a job resumable by ID, they are
// tiny next to the shard payloads, and a GC that dropped them would
// turn a bounded cache into a lossy job table. Evicting a shard is
// always safe — the pipeline treats a missing shard as a cache miss and
// recomputes it bit-identically, so GC trades wall-clock for disk,
// never correctness.
//
// Eviction order is deterministic: ascending (access time, key). Access
// time is the file mtime — GetShard bumps it on every hit while a size
// bound is armed, so mtime order is LRU order — and the content-address
// key breaks ties, so a fixed access sequence always evicts the same
// shards.
package sweepstore

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// GCResult reports one garbage-collection pass.
type GCResult struct {
	// Evicted is the number of shard files removed.
	Evicted int
	// ReclaimedBytes is the payload size removed.
	ReclaimedBytes int64
	// RemainingBytes is the shard footprint after the pass.
	RemainingBytes int64
}

// SetMaxBytes arms automatic garbage collection: after any PutShard
// that pushes the shard footprint over limit, the store evicts
// least-recently-accessed shards until it fits again, and GetShard hits
// bump their shard's access time so hot shards survive. limit <= 0
// disarms the bound (the default).
func (s *Store) SetMaxBytes(limit int64) {
	s.maxBytes.Store(limit)
}

// MaxBytes returns the armed size bound (0 when unlimited).
func (s *Store) MaxBytes() int64 { return s.maxBytes.Load() }

// touch bumps a shard file's access time, best-effort: a failed bump
// only ages the shard's LRU position, it cannot corrupt results. The
// wall-clock read is cache bookkeeping — which shard to evict first —
// and never flows into simulation state or results.
func (s *Store) touch(path string) {
	//qa:allow determinism LRU access-time bookkeeping, never flows into results
	now := time.Now()
	//qa:allow errcheck best-effort access-time bump, a miss only ages the LRU slot
	os.Chtimes(path, now, now)
}

// shardEntry is one evictable file in the GC scan.
type shardEntry struct {
	key   string
	path  string
	size  int64
	atime time.Time
}

// GC evicts least-recently-accessed shards until the shard footprint is
// at or below maxBytes (spec/result checkpoints under jobs/ are pins
// and never touched). The eviction order is ascending (access time,
// key), so a fixed access history always evicts the same shards; a
// subsequent sweep over the store recomputes exactly the evicted shards
// and folds to bit-identical results. Safe to call concurrently with
// reads and writes: an evicted shard being read degrades to a cache
// miss.
func (s *Store) GC(maxBytes int64) (GCResult, error) {
	if maxBytes < 0 {
		return GCResult{}, fmt.Errorf("sweepstore: negative GC bound %d", maxBytes)
	}
	s.gcMu.Lock()
	defer s.gcMu.Unlock()

	entries, total, err := s.scanShards()
	if err != nil {
		return GCResult{}, err
	}
	// Resync the running counter to the scan: it can drift if an external
	// process shared the store directory.
	s.size.Store(total)

	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].atime.Equal(entries[j].atime) {
			return entries[i].atime.Before(entries[j].atime)
		}
		if entries[i].key != entries[j].key {
			return entries[i].key < entries[j].key
		}
		// A key with both a current and a legacy payload.
		return entries[i].path < entries[j].path
	})

	res := GCResult{RemainingBytes: total}
	for _, e := range entries {
		if res.RemainingBytes <= maxBytes {
			break
		}
		if err := os.Remove(e.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			s.noteGC(res)
			return res, fmt.Errorf("sweepstore: evict shard %s: %w", e.key, err)
		}
		res.Evicted++
		res.ReclaimedBytes += e.size
		res.RemainingBytes -= e.size
	}
	s.size.Add(-res.ReclaimedBytes)
	s.noteGC(res)
	return res, nil
}

// noteGC folds one pass into the monotonic counters.
func (s *Store) noteGC(res GCResult) {
	s.gcRuns.Add(1)
	s.gcEvicted.Add(int64(res.Evicted))
	s.gcReclaimed.Add(res.ReclaimedBytes)
}

// scanShards walks the shards/ tree collecting every shard file with
// its size and access time. Every file but an in-flight temp file is a
// shard, whatever its suffix: payloads of an older format (the JSON
// .json files) are never read, but they count and stay evictable.
func (s *Store) scanShards() ([]shardEntry, int64, error) {
	var entries []shardEntry
	var total int64
	root := filepath.Join(s.root, "shards")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			// A file evicted or renamed mid-walk is not an error.
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() || strings.HasPrefix(d.Name(), tempPrefix) {
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		entries = append(entries, shardEntry{
			key:   strings.TrimSuffix(d.Name(), filepath.Ext(d.Name())),
			path:  path,
			size:  fi.Size(),
			atime: fi.ModTime(),
		})
		total += fi.Size()
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("sweepstore: scan shards: %w", err)
	}
	return entries, total, nil
}

// scanShardBytes sums the shards/ tree (the Open-time size counter
// initialization).
func (s *Store) scanShardBytes() (int64, error) {
	_, total, err := s.scanShards()
	return total, err
}
