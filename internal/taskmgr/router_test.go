package taskmgr

import (
	"testing"

	"crowddb/internal/catalog"
	"crowddb/internal/crowd"
	"crowddb/internal/crowd/amt"
	"crowddb/internal/crowd/model"
	"crowddb/internal/quality"
	"crowddb/internal/ui"
	"crowddb/internal/wrm"
)

// calmOracle answers like testOracle but with zero difficulty, so a
// perfect-accuracy model profile is guaranteed correct and the
// escalation decision is driven purely by the confidence knobs.
type calmOracle struct{ testOracle }

func (calmOracle) CompareTruth(kind crowd.TaskKind, question, left, right string) *crowd.SimTruth {
	if kind == crowd.TaskCompareEqual {
		ans := "no"
		if quality.Normalize(left) == quality.Normalize(right) {
			ans = "yes"
		}
		return &crowd.SimTruth{Truth: map[string]string{ui.AnswerField: ans}}
	}
	win := left
	if right < left {
		win = right
	}
	return &crowd.SimTruth{Truth: map[string]string{ui.AnswerField: win}}
}

// newHybridManager builds a manager whose human tier is simulated AMT
// and whose model tier is the given platform.
func newHybridManager(t *testing.T, seed int64, mp crowd.Platform, mut func(*Config)) *Manager {
	t.Helper()
	cat := catalog.New()
	uim := ui.NewManager(cat)
	uim.GenerateAll()
	tracker := quality.NewTracker()
	payer := wrm.New(wrm.DefaultPolicy(), tracker)
	cfg := DefaultConfig()
	cfg.ModelPlatform = mp
	if mut != nil {
		mut(&cfg)
	}
	return New(amt.NewDefault(seed), uim, tracker, payer, calmOracle{}, cfg)
}

// confidentModel is a profile that always answers correctly (at zero
// difficulty) with confidence safely above the default floor.
func confidentModel() model.Profile {
	prof := model.Sharp()
	prof.Accuracy = 1
	prof.ConfidenceNoise = 0
	return prof
}

// A confident, correct model tier resolves everything without touching
// the human platform, and the per-platform split attributes all spend
// to the model tier.
func TestHybridNoEscalation(t *testing.T) {
	mp := model.New(model.Config{Seed: 5, Profile: confidentModel()})
	m := newHybridManager(t, 5, mp, nil)
	ds, err := wait(m.CompareEqualAsync("Same company?", []ComparePair{
		{Left: "UC Berkeley", Right: "uc berkeley"},
		{Left: "UC Berkeley", Right: "Stanford"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if quality.Normalize(ds[0].Value) != "yes" || quality.Normalize(ds[1].Value) != "no" {
		t.Errorf("decisions: %+v", ds)
	}
	st := m.Stats()
	if st.ModelGroupsPosted != 1 || st.EscalatedGroups != 0 || st.EscalatedHITs != 0 {
		t.Errorf("confident model tier must not escalate: %+v", st)
	}
	mps := st.ByPlatform["model"]
	if mps.Groups != 1 || mps.HITs != 2 || mps.Assignments != 2 {
		t.Errorf("model tier split: %+v", mps)
	}
	if hps := st.ByPlatform["amt"]; hps.Groups != 0 || hps.ApprovedSpend != 0 {
		t.Errorf("human tier must stay idle: %+v", hps)
	}
	if mps.ApprovedSpend != st.ApprovedSpend || st.ApprovedSpend == 0 {
		t.Errorf("all spend must land on the model tier: %v of %v", mps.ApprovedSpend, st.ApprovedSpend)
	}
}

// An unconfident model tier escalates every HIT: the human platform
// answers, both tiers' votes merge into the decision, and the spend
// breakdown splits across both platform names.
func TestHybridEscalation(t *testing.T) {
	prof := confidentModel()
	prof.CorrectConfidence = 0.5 // below the 0.75 floor: everything contested
	mp := model.New(model.Config{Seed: 5, Profile: prof})
	m := newHybridManager(t, 5, mp, nil)
	ds, err := wait(m.CompareEqualAsync("Same company?", []ComparePair{
		{Left: "UC Berkeley", Right: "uc berkeley"},
		{Left: "UC Berkeley", Right: "Stanford"},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if quality.Normalize(ds[0].Value) != "yes" || quality.Normalize(ds[1].Value) != "no" {
		t.Errorf("decisions: %+v", ds)
	}
	st := m.Stats()
	if st.ModelGroupsPosted != 1 || st.EscalatedGroups != 1 || st.EscalatedHITs != 2 {
		t.Errorf("unconfident model tier must escalate both HITs: %+v", st)
	}
	mps, hps := st.ByPlatform["model"], st.ByPlatform["amt"]
	if mps.HITs != 2 || mps.Assignments != 2 || mps.ApprovedSpend == 0 {
		t.Errorf("model tier split: %+v", mps)
	}
	if hps.Groups != 1 || hps.HITs != 2 || hps.Assignments < 6 || hps.ApprovedSpend == 0 {
		t.Errorf("human tier split: %+v", hps)
	}
	if mps.ApprovedSpend+hps.ApprovedSpend != st.ApprovedSpend {
		t.Errorf("per-platform spend must sum to the aggregate: %v + %v != %v",
			mps.ApprovedSpend, hps.ApprovedSpend, st.ApprovedSpend)
	}
	// The merged decision counts votes from both tiers (1 model + 3 human).
	if ds[0].Total < 4 {
		t.Errorf("escalated decision must merge model and human votes: %+v", ds[0])
	}
}

// Tier-weighted resolution: a model worker with a strong agreement
// record outvotes low-scoring human workers — but only up to the
// escalation threshold, below which the HIT routes to humans no matter
// how well the model has scored historically.
func TestTierWeightedOutvoteUpToThreshold(t *testing.T) {
	mp := model.New(model.Config{Seed: 1, Profile: confidentModel()})
	m := newHybridManager(t, 1, mp, nil)
	vote := func(worker, source, answer string, conf float64) *crowd.Assignment {
		return &crowd.Assignment{
			HITID: "H1", WorkerID: worker, Answers: crowd.Answers{{Field: "answer", Value: answer}},
			Confidence: conf, Source: source,
		}
	}
	asgs := []*crowd.Assignment{
		vote("model-w00", "model", "alpha", 0.9),
		vote("h-a", "amt", "beta", 0),
		vote("h-b", "amt", "beta", 0),
	}
	// Neutral history: the model vote weighs 0.5×0.6 against two 0.5
	// human votes — the humans win.
	if d := m.decide(asgs, "answer"); quality.Normalize(d.Value) != "beta" {
		t.Errorf("unproven model worker must not outvote two humans: %+v", d)
	}
	// Teach the tracker: the model worker keeps agreeing with decisions,
	// the two humans keep landing on the losing side.
	for i := 0; i < 60; i++ {
		m.tracker.Record(quality.Decision{Agreed: []string{"model-w00"}, Disagreed: []string{"h-a", "h-b"}})
	}
	if d := m.decide(asgs, "answer"); quality.Normalize(d.Value) != "alpha" {
		t.Errorf("high-scoring model worker must outvote low-scoring humans: %+v", d)
	}
	// The outvote only holds above the escalation threshold: the same
	// high-scoring worker at low confidence is contested and routed to
	// the human tier before any weighted resolution happens.
	hit := &crowd.HIT{ID: "H1", Kind: crowd.TaskCompareEqual, Fields: []crowd.Field{
		{Name: "answer", Kind: crowd.FieldInput, Label: "same?"},
	}}
	group := &crowd.HITGroup{Kind: crowd.TaskCompareEqual, Reward: 1, Assignments: 1, HITs: []*crowd.HIT{hit}}
	low := map[string][]*crowd.Assignment{"H1": {vote("model-w00", "model", "alpha", 0.5)}}
	if contested := m.contestedHITs(group, low); len(contested) != 1 {
		t.Errorf("low confidence must escalate regardless of tracker score: %v", contested)
	}
	high := map[string][]*crowd.Assignment{"H1": {vote("model-w00", "model", "alpha", 0.9)}}
	if contested := m.contestedHITs(group, high); len(contested) != 0 {
		t.Errorf("confident answer must not escalate: %v", contested)
	}
}

// The FlakyPlatform wrapper composes over the model tier: injected
// post/status/results outages are absorbed by the retry budget without
// wedging, double-paying, or spurious escalations.
func TestFlakyModelTier(t *testing.T) {
	flaky := crowd.NewFlaky(model.New(model.Config{Seed: 9, Profile: confidentModel()}), 3)
	m := newHybridManager(t, 9, flaky, nil)
	for round := 0; round < 3; round++ {
		ds, err := wait(m.CompareEqualAsync("Same company?", []ComparePair{
			{Left: "IBM", Right: "ibm"},
			{Left: "IBM", Right: "Oracle"},
		}))
		if err != nil {
			t.Fatal(err)
		}
		if quality.Normalize(ds[0].Value) != "yes" || quality.Normalize(ds[1].Value) != "no" {
			t.Errorf("round %d decisions: %+v", round, ds)
		}
	}
	if flaky.Fails() == 0 {
		t.Fatal("flaky wrapper injected no failures; the retry path went unexercised")
	}
	st := m.Stats()
	if st.ModelGroupsPosted != 3 || st.EscalatedHITs != 0 {
		t.Errorf("outages must not cause spurious escalations: %+v", st)
	}
	if got := st.ByPlatform["model"].Assignments; got != 6 {
		t.Errorf("model tier must answer exactly once per HIT despite retries: %d", got)
	}
}
