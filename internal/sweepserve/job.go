package sweepserve

import (
	"context"
	"sync"

	"repro/internal/experiments"
)

// Job states. A job not in memory but checkpointed in the store reports
// stateStored until it is resumed.
const (
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
	stateStored  = "stored"
)

// SSE event names. Point events carry PointEvent payloads; the terminal
// done/failed events carry the final StatusResponse.
const (
	eventPoint  = "point"
	eventDone   = "done"
	eventFailed = "failed"
)

// PointEvent is the SSE payload of one completed sweep point. Points
// are announced strictly in ascending order — the pipeline's in-order
// Progress collector serializes them — so a subscriber can render a
// monotone progress bar whatever the worker interleaving was.
type PointEvent struct {
	Point int     `json:"point"`
	PER   float64 `json:"per"`
}

type sseEvent struct {
	Name string
	Data any
}

// job tracks one submitted sweep through the pipeline.
type job struct {
	id    string
	spec  experiments.Spec
	total int

	cancel context.CancelFunc

	mu         sync.Mutex
	state      string
	computed   int
	cached     int
	pointsDone int
	result     []byte // json.Marshal of the folded []PointResult
	errMsg     string
	log        []sseEvent // replay buffer for late subscribers
	subs       []chan sseEvent
}

func newJob(id string, spec experiments.Spec) *job {
	return &job{
		id:    id,
		spec:  spec,
		total: spec.NumShards(),
		state: stateRunning,
	}
}

func (j *job) running() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state == stateRunning
}

// stop cancels the job's pipeline context, if it is still running.
func (j *job) stop() {
	if j.cancel != nil {
		j.cancel()
	}
}

// noteShard records one resolved shard (called concurrently from the
// pipeline's worker goroutines).
func (j *job) noteShard(cached bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cached {
		j.cached++
	} else {
		j.computed++
	}
}

// pointDone records and broadcasts one completed point (called from the
// pipeline's progress collector goroutine, in ascending point order).
func (j *job) pointDone(point int, per float64) {
	j.mu.Lock()
	j.pointsDone++
	j.emitLocked(sseEvent{Name: eventPoint, Data: PointEvent{Point: point, PER: per}})
	j.mu.Unlock()
}

// finish marks the job done with its encoded result and broadcasts the
// terminal event.
func (j *job) finish(result []byte) {
	j.mu.Lock()
	j.state = stateDone
	j.result = result
	j.emitLocked(sseEvent{Name: eventDone, Data: j.snapshotLocked()})
	j.mu.Unlock()
}

// fail marks the job failed. A cancelled context counts as a failure
// too: the client sees "context canceled" and may resume later.
func (j *job) fail(err error) {
	j.mu.Lock()
	j.state = stateFailed
	j.errMsg = err.Error()
	j.emitLocked(sseEvent{Name: eventFailed, Data: j.snapshotLocked()})
	j.mu.Unlock()
}

// emitLocked appends to the replay log and fans out to subscribers.
// Each subscriber channel is buffered for the job's full event budget
// (every point once plus one terminal event), so sends never block.
func (j *job) emitLocked(ev sseEvent) {
	j.log = append(j.log, ev)
	for _, ch := range j.subs {
		ch <- ev
	}
}

// eventCap is the largest number of events a job can emit: one per
// point plus one terminal event.
func (j *job) eventCap() int { return len(j.spec.PERs) + 1 }

// subscribe registers an SSE subscriber and replays the event log into
// its buffered channel before any live event can interleave.
func (j *job) subscribe() chan sseEvent {
	j.mu.Lock()
	defer j.mu.Unlock()
	ch := make(chan sseEvent, j.eventCap())
	for _, ev := range j.log {
		ch <- ev
	}
	j.subs = append(j.subs, ch)
	return ch
}

// unsubscribe removes a subscriber registered by subscribe.
func (j *job) unsubscribe(ch chan sseEvent) {
	j.mu.Lock()
	defer j.mu.Unlock()
	for i, c := range j.subs {
		if c == ch {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			return
		}
	}
}

// results returns the encoded sweep results (valid once done).
func (j *job) results() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

func (j *job) snapshot() StatusResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *job) snapshotLocked() StatusResponse {
	return StatusResponse{
		ID:         j.id,
		State:      j.state,
		Points:     len(j.spec.PERs),
		PointsDone: j.pointsDone,
		Shards:     ShardCounts{Total: j.total, Computed: j.computed, Cached: j.cached},
		HasResult:  j.state == stateDone,
		Error:      j.errMsg,
	}
}
