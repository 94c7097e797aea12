// Package crowd defines the platform-neutral crowdsourcing model CrowdDB's
// Task Manager works against: HITs (Human Intelligence Tasks) grouped for
// posting, assignments (one worker's answer to one HIT), and the Platform
// interface both supported platforms implement — the simulated Amazon
// Mechanical Turk (internal/crowd/amt) and the locality-aware mobile
// platform the paper demos at VLDB (internal/crowd/mobile).
//
// Time is virtual: platforms are driven by Step, which advances the
// simulated crowd by a duration. This preserves the latency *shapes* the
// paper measures on live crowds while letting experiments run in
// milliseconds (see the README's opening on the simulated crowd).
package crowd

import (
	"fmt"
	"time"
)

// Cents is a money amount in US cents; AMT rewards in the paper's
// experiments range from 1¢ to a few cents per HIT.
type Cents int64

// String renders the amount as dollars, e.g. "$0.02".
func (c Cents) String() string { return fmt.Sprintf("$%d.%02d", c/100, c%100) }

// FieldKind tells the worker UI how to render a field.
type FieldKind int

// Field kinds: Display fields are pre-filled read-only context (the known
// column values, §3.1), Input fields collect free text, Choice fields
// collect one of a fixed set of options (comparison tasks).
const (
	FieldDisplay FieldKind = iota
	FieldInput
	FieldChoice
)

// Field is one element of a task form.
type Field struct {
	Name    string // column or question identifier
	Label   string // human-readable prompt, from schema annotations
	Kind    FieldKind
	Value   string   // pre-filled value for Display fields
	Options []string // for Choice fields
}

// TaskKind classifies what a HIT asks for; it selects the UI template and
// the quality-control policy.
type TaskKind int

// Task kinds, one per crowd operator in the paper (§3.2.1): CrowdProbe
// sources missing values or new tuples, CrowdCompare powers CROWDEQUAL and
// CROWDORDER.
const (
	TaskProbeValues  TaskKind = iota // fill CNULL columns of an existing tuple
	TaskNewTuple                     // contribute a new tuple to a CROWD table
	TaskCompareEqual                 // are these two values the same entity?
	TaskCompareOrder                 // which of the two items ranks higher?
)

func (k TaskKind) String() string {
	switch k {
	case TaskProbeValues:
		return "probe"
	case TaskNewTuple:
		return "new-tuple"
	case TaskCompareEqual:
		return "crowd-equal"
	case TaskCompareOrder:
		return "crowd-order"
	default:
		return "unknown"
	}
}

// SimTruth is simulation-only ground truth attached to a HIT so simulated
// workers can answer it. A real crowd deployment leaves it nil; CrowdDB
// itself never reads it — only the worker simulator does. This is the
// substitution for the live AMT / VLDB-attendee crowds of the paper.
type SimTruth struct {
	// Truth maps input-field names to the correct answer.
	Truth map[string]string
	// Wrong maps input-field names to plausible incorrect answers a
	// confused worker might give. Empty means workers invent noise.
	Wrong map[string][]string
	// Difficulty in [0,1] scales how often even a diligent worker errs
	// (0 = trivial, 1 = coin flip). Subjective comparisons use mid values.
	Difficulty float64
}

// HIT is one task instance: a rendered form plus bookkeeping.
type HIT struct {
	ID     string
	Kind   TaskKind
	Title  string
	Fields []Field
	// HTML is the instantiated UI template (paper §3.1); platforms show it
	// to workers, the simulator ignores it.
	HTML string
	// Truth is simulation-only (see SimTruth).
	Truth *SimTruth
}

// InputFields returns the names of the fields a worker must fill.
func (h *HIT) InputFields() []string {
	var names []string
	for _, f := range h.Fields {
		if f.Kind != FieldDisplay {
			names = append(names, f.Name)
		}
	}
	return names
}

// HITGroup is a batch of same-shaped HITs posted together, as AMT groups
// them. Assignments is the replication factor per HIT, the knob the paper's
// majority-vote quality control turns.
type HITGroup struct {
	Title       string
	Description string
	Kind        TaskKind
	Reward      Cents // per assignment
	Assignments int   // replication per HIT (quality control, §3.2.1)
	Expiry      time.Duration
	HITs        []*HIT
	// Venue restricts the group to workers near the given location; only
	// the mobile platform honors it (paper §4: "constrain the workers to
	// the attendees at VLDB").
	Venue *GeoFence
	// AdaptiveVotes lets the platform stop soliciting further assignments
	// for a HIT once its early answers are unanimous above the quorum
	// floor (quality.MajorityFor(Assignments)) — fewer votes on easy
	// questions, full replication only where workers disagree.
	AdaptiveVotes bool
}

// GeoFence restricts tasks to workers within RadiusKM of a point.
type GeoFence struct {
	Lat, Lon float64
	RadiusKM float64
}

// Validate checks a group is postable.
func (g *HITGroup) Validate() error {
	if len(g.HITs) == 0 {
		return fmt.Errorf("crowd: group %q has no HITs", g.Title)
	}
	if g.Assignments <= 0 {
		return fmt.Errorf("crowd: group %q needs a positive assignment count", g.Title)
	}
	if g.Reward <= 0 {
		return fmt.Errorf("crowd: group %q needs a positive reward", g.Title)
	}
	for _, h := range g.HITs {
		if h.ID == "" {
			return fmt.Errorf("crowd: group %q contains a HIT without ID", g.Title)
		}
	}
	return nil
}

// AssignmentStatus tracks the lifecycle of one worker's work on one HIT.
type AssignmentStatus int

// Assignment states.
const (
	AssignmentPending AssignmentStatus = iota
	AssignmentSubmitted
	AssignmentApproved
	AssignmentRejected
)

// Answer is a worker's raw answer to one input field.
type Answer struct {
	Field, Value string
}

// Answers are an assignment's answers in the order the worker gave them.
type Answers []Answer

// Get returns the answer for field: the last one given, if the field was
// answered more than once.
func (as Answers) Get(field string) (string, bool) {
	for i := len(as) - 1; i >= 0; i-- {
		if as[i].Field == field {
			return as[i].Value, true
		}
	}
	return "", false
}

// Assignment is one worker's submitted answer for one HIT.
type Assignment struct {
	ID          string
	HITID       string
	WorkerID    string
	Status      AssignmentStatus
	SubmittedAt time.Duration // virtual time of submission
	// Answers holds the worker's raw answers per input field, un-cleansed:
	// quality control normalizes and votes over them. They are immutable
	// once the assignment is submitted, so the copies Results returns
	// share them with the platform: read them, never write them.
	Answers Answers
	// Confidence is the worker's self-reported certainty in (0,1], when the
	// platform supplies one (model answerers do; human platforms leave 0).
	// The escalation router reads it to decide whether a model-tier answer
	// stands or the HIT escalates to the human tier.
	Confidence float64
	// Source names the platform the assignment came from; the Task Manager
	// stamps it at collection time so tier-weighted voting can tell model
	// votes from human votes after the answers are merged.
	Source string
}

// GroupStatus summarizes a posted group's progress.
type GroupStatus struct {
	Posted    int // HITs in the group
	Completed int // HITs with all assignments submitted
	Submitted int // total submitted assignments
	Expired   bool
}

// Done reports whether every HIT has its full replication of answers (or
// the group has expired — partial answers are then all the requester gets).
func (st GroupStatus) Done() bool {
	return st.Expired || (st.Posted > 0 && st.Completed == st.Posted)
}

// GroupID names a posted group on a platform.
type GroupID string

// Platform is what the Task Manager programs against (paper Fig. 1: the
// Task Manager "makes the API calls to post tasks, assess their status, and
// obtain results").
//
// Thread-safety contract: the Task Manager's async scheduler keeps several
// HIT groups in flight and may call Post, Status, Results, Approve, Reject,
// Expire, Step, and Now from different goroutines at once (Post from
// submitters, everything else from the current clock driver). Every method
// must therefore be safe for concurrent use. Additional guarantees
// implementations must uphold:
//
//   - Post is atomic: a group is either fully registered (its ID valid for
//     every other method) or an error is returned; no partial state.
//   - Results returns copies — callers may retain and read the assignments,
//     and stamp fields of their own copies, without further synchronization
//     while the simulation advances. A copy's Answers are shared, read-only.
//   - Step serializes internally; virtual time is monotone and Now never
//     runs backwards. Callers must not assume Step is exclusive with
//     Status/Results polling.
//   - Approve/Reject are idempotence-checked: double-approving the same
//     assignment is an error, never a double payment.
//
// Both simulated platforms (amt, mobile) satisfy this by delegating to the
// sim.Market, whose methods all run under one mutex (including clock event
// dispatch, which fires inside Step).
type Platform interface {
	// Name identifies the platform ("amt" or "mobile").
	Name() string
	// Post publishes a HIT group and returns its ID.
	Post(g *HITGroup) (GroupID, error)
	// Status reports group progress.
	Status(id GroupID) (GroupStatus, error)
	// Results returns submitted assignments for the group.
	Results(id GroupID) ([]*Assignment, error)
	// Approve marks an assignment approved and pays the worker,
	// optionally with a bonus (the WRM's job, §3).
	Approve(assignmentID string, bonus Cents) error
	// Reject refuses an assignment (no payment).
	Reject(assignmentID string, reason string) error
	// Expire force-expires a group (no further answers will arrive).
	Expire(id GroupID) error
	// Step advances the simulated crowd by d of virtual time.
	Step(d time.Duration)
	// Now is the platform's current virtual time.
	Now() time.Duration
}
