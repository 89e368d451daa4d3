package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/experiments"
)

// defaultSeed is the seed whose folded-result digests are recorded in
// digests.json.
const defaultSeed = 1

//go:embed digests.json
var digestsJSON []byte

// recordedDigests maps workload name to the SHA-256 of its folded result
// (the JSON encoding of []PointResult) at defaultSeed and full size.
func recordedDigests() (map[string]string, error) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

// reference is the workload's expected output, computed once per run by
// an untimed in-process RunSpec.
type reference struct {
	pts    []experiments.PointResult
	body   []byte // json.Marshal(pts): the service's result body minus its newline
	digest string
	runs   [][]experiments.LERResult // per shard index; nil where not computed
	shards int                       // shards computed
}

// computeReference runs the spec in process, capturing every shard's
// runs through the Persist hook.
func computeReference(ctx context.Context, spec experiments.Spec, workers int) (reference, error) {
	runs := make([][]experiments.LERResult, spec.NumShards())
	pts, err := experiments.RunSpec(ctx, spec, experiments.RunOptions{
		Workers: workers,
		Persist: func(sh experiments.Shard, rs []experiments.LERResult) error {
			runs[sh.Index] = rs
			return nil
		},
	})
	if err != nil {
		return reference{}, err
	}
	ref := reference{pts: pts, runs: runs}
	for _, rs := range runs {
		if rs != nil {
			ref.shards++
		}
	}
	if ref.body, err = json.Marshal(pts); err != nil {
		return reference{}, err
	}
	ref.digest = digest(ref.body)
	return ref, nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkRecorded compares the reference digest with the recorded one.
// It returns a note for the report and an error on a mismatch.
func checkRecorded(ref reference, workload string, seed int64, tiny bool, recorded map[string]string) (string, error) {
	if seed != defaultSeed || tiny {
		return fmt.Sprintf("not recorded for seed %d; cross-path checks only", seed), nil
	}
	want, ok := recorded[workload]
	if !ok {
		return "no recorded digest for this workload", nil
	}
	if want != ref.digest {
		return "MISMATCH", fmt.Errorf("folded-result digest %s, recorded %s", ref.digest, want)
	}
	return "matches digests.json", nil
}

// checkSweep verifies one in-process fold against the reference.
func checkSweep(pts []experiments.PointResult, ref reference) error {
	b, err := json.Marshal(pts)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, ref.body) {
		return fmt.Errorf("in-process fold digest %s, reference %s", digest(b), ref.digest)
	}
	return nil
}

// checkService verifies one service operation: the job finished, its
// shard accounting adds up for the phase, and the result body is byte
// for byte the in-process fold, so cold, warm and fan-out agree.
func checkService(phase string, res serviceResult, ref reference, spec experiments.Spec) error {
	st := res.status
	if st.State != "done" {
		return fmt.Errorf("%s: job state %q", phase, st.State)
	}
	sh := st.Shards
	if sh.Computed+sh.Cached != ref.shards {
		return fmt.Errorf("%s: computed %d + cached %d != %d shards folded", phase, sh.Computed, sh.Cached, ref.shards)
	}
	// An adaptive job reports every shard it might have run as its
	// total; only a full sweep folds them all.
	//qa:allow float-eq zero is the spec's adaptive-off value
	if spec.Normalized().AdaptRelWidth == 0 && sh.Total != ref.shards {
		return fmt.Errorf("%s: total %d shards, spec has %d", phase, sh.Total, ref.shards)
	}
	switch phase {
	case phaseCold, phaseFanout:
		if sh.Computed != ref.shards {
			return fmt.Errorf("%s: fresh store computed %d of %d shards", phase, sh.Computed, ref.shards)
		}
	case phaseWarm:
		if sh.Cached != ref.shards {
			return fmt.Errorf("%s: warm store served %d of %d shards", phase, sh.Cached, ref.shards)
		}
	}
	body := bytes.TrimSuffix(res.body, []byte("\n"))
	if !bytes.Equal(body, ref.body) {
		return fmt.Errorf("%s: result body digest %s, in-process fold %s", phase, digest(body), ref.digest)
	}
	return nil
}
