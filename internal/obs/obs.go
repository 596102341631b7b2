// Package obs is the event-level observability layer shared by the burst
// simulator (internal/platform) and the local FaaS runtime
// (internal/localfaas). Both emit the same typed records — lifecycle stage
// spans and fault/policy point events — into a pluggable Recorder, so one
// set of exporters (JSONL, Chrome trace-event, stage summaries, a metrics
// registry) serves simulated and real executions alike.
//
// Design constraints, in order:
//
//  1. A nil Recorder must cost nothing: emitters guard every call with a
//     nil check and allocate no tracking state, so the simulator's hot path
//     is unchanged when observability is off.
//  2. Recorder implementations must be safe for concurrent use — the local
//     runtime emits from one goroutine per instance.
//  3. Records are plain values with no pointers into emitter state, so a
//     recorder may retain them indefinitely.
//
// Times are float64 seconds relative to the enclosing burst's invocation
// (virtual seconds in the simulator, wall-clock seconds in localfaas).
package obs

// Stage identifies one step of an instance's lifecycle:
// queued → scheduled → build → ship → boot → exec (→ hedge duplicate).
type Stage uint8

const (
	// StageQueued is time spent waiting for admission: account-level
	// throttling or a staggered arrival, before the scheduler is entered.
	StageQueued Stage = iota
	// StageSched covers scheduler entry through placement (queue wait plus
	// the placement search).
	StageSched
	// StageBuild is the container/microVM image build.
	StageBuild
	// StageShip moves the built image to its host.
	StageShip
	// StageBoot covers host-side boot: ship-done through execution start
	// (for retried instances this includes backoff and re-boot loops; for
	// warm instances it is the warm-start latency).
	StageBoot
	// StageExec is the winning attempt's execution.
	StageExec
	// StageHedge is the speculative duplicate's execution (win or lose).
	StageHedge

	// The remaining stages belong to the serve daemon's request path rather
	// than the instance lifecycle: each guard of the robustness chain emits
	// one span per request, so a request trace reads limit → admit → plan.

	// StageLimit is the per-tenant rate-limit check.
	StageLimit
	// StageAdmit is time spent waiting for an admission slot.
	StageAdmit
	// StageCoalesce is emitted by nothing: the daemon no longer coalesces
	// whole requests. It stays declared, and in the stage order, for the
	// benchmark's stage rows.
	StageCoalesce
	// StagePlan is the request's computation itself.
	StagePlan

	numStages = int(StagePlan) + 1
)

var stageNames = [numStages]string{
	"queued", "sched", "build", "ship", "boot", "exec", "hedge",
	"limit", "admit", "coalesce", "plan",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Stages lists every stage in lifecycle order, for exporters that want a
// fixed row ordering.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// EventKind identifies a fault or policy point event.
type EventKind uint8

const (
	// EventStartRetry marks a failed cold start about to be re-submitted.
	EventStartRetry EventKind = iota
	// EventCrash marks a mid-execution crash of an attempt; DurSec is the
	// billed partial execution time lost.
	EventCrash
	// EventTimeout marks an execution-timeout kill; DurSec is the billed
	// partial execution time lost.
	EventTimeout
	// EventStraggle marks an attempt hit by straggler slowdown; DurSec is
	// the slowed execution duration.
	EventStraggle
	// EventHedgeLaunch marks the speculative duplicate's launch.
	EventHedgeLaunch
	// EventHedgeWin marks a duplicate that finished before its primary.
	EventHedgeWin
	// EventHedgeWaste marks a duplicate the primary beat; DurSec is the
	// duplicate's billed (wasted) execution time.
	EventHedgeWaste
	// EventBackoff marks a retry backoff wait chosen by the resilience
	// policy; DurSec is the delay.
	EventBackoff

	numEventKinds = int(EventBackoff) + 1
)

var eventKindNames = [numEventKinds]string{
	"start-retry", "crash", "timeout", "straggle",
	"hedge-launch", "hedge-win", "hedge-waste", "backoff",
}

func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// Span is one completed lifecycle stage of one instance.
type Span struct {
	Instance int
	Stage    Stage
	StartSec float64
	EndSec   float64
}

// DurSec is the span's duration in seconds.
func (s Span) DurSec() float64 { return s.EndSec - s.StartSec }

// Event is a point-in-time fault or policy event of one instance.
type Event struct {
	Instance int
	Kind     EventKind
	AtSec    float64
	// DurSec carries the event's associated duration where meaningful
	// (billed partial work, backoff delay, wasted hedge time); 0 otherwise.
	DurSec float64
}

// BurstInfo identifies one burst within a recording session. A Recorder may
// receive several bursts (a degree sweep, a heterogeneous job's deployments,
// ProPack's probe runs) and keeps them apart by BeginBurst boundaries.
type BurstInfo struct {
	// Platform is the executing platform's name ("AWS Lambda", "localfaas").
	Platform string
	// Label distinguishes bursts of the same shape ("unpacked", "degree-8");
	// may be empty.
	Label string
	// Functions is C, the logical function count.
	Functions int
	// Degree is the packing degree; 0 for heterogeneous (mixed) bursts.
	Degree int
	// Instances is the number of function instances spawned.
	Instances int
}

// Recorder receives the typed observability records of one or more bursts.
// Implementations must be safe for concurrent use by multiple goroutines.
// Emitters treat a nil Recorder as "observability off" and never call it.
type Recorder interface {
	// BeginBurst marks the start of a new burst; subsequent Span and Event
	// calls belong to it until the next BeginBurst.
	BeginBurst(BurstInfo)
	// Span records one completed lifecycle stage.
	Span(Span)
	// Event records a fault or policy point event.
	Event(Event)
}

// multi fans records out to several recorders in order.
type multi []Recorder

func (m multi) BeginBurst(b BurstInfo) {
	for _, r := range m {
		r.BeginBurst(b)
	}
}

func (m multi) Span(s Span) {
	for _, r := range m {
		r.Span(s)
	}
}

func (m multi) Event(e Event) {
	for _, r := range m {
		r.Event(e)
	}
}

// Multi combines recorders into one that forwards every record to each, in
// order. Nil entries are dropped; with no non-nil entries Multi returns nil,
// so emitters' nil checks keep their zero-cost fast path.
func Multi(recs ...Recorder) Recorder {
	var out multi
	for _, r := range recs {
		if r != nil {
			out = append(out, r)
		}
	}
	switch len(out) {
	case 0:
		return nil
	case 1:
		return out[0]
	default:
		return out
	}
}
