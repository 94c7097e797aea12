package taskmgr

import (
	"testing"

	"crowddb/internal/crowd/model"
)

// TestConfigPrices pins the one price list against the figures the
// engine has always charged: reward × replication on the human tier; on
// the hybrid tier (E24: a ¢1 × 1 model tier routed first) the model rate
// plus the escalated fraction of the human rate, with a solicited tuple
// keeping the tuple replication on both tiers.
func TestConfigPrices(t *testing.T) {
	human := DefaultConfig()
	if got, want := human.Prices(0.5), (Prices{Compare: 6, Tuple: 2}); got != want {
		t.Errorf("human prices: got %+v want %+v (the escalation rate is ignored without a model tier)", got, want)
	}
	hybrid := DefaultConfig()
	hybrid.ModelPlatform = model.New(model.Config{Seed: 42, Profile: model.Sharp()})
	hybrid.ModelReward = 1
	hybrid.ModelAssignments = 1
	for _, c := range []struct {
		escalation float64
		want       Prices
	}{
		{0, Prices{Compare: 1, Tuple: 1}},
		{0.125, Prices{Compare: 1.75, Tuple: 1.25}}, // E24's 24 comparisons cost ¢42
		{0.25, Prices{Compare: 2.5, Tuple: 1.5}},
		{1, Prices{Compare: 7, Tuple: 3}},
	} {
		if got := hybrid.Prices(c.escalation); got != c.want {
			t.Errorf("hybrid prices at escalation %v: got %+v want %+v", c.escalation, got, c.want)
		}
	}
}

// TestManagerPrices: the manager prices at its normalized configuration
// and the observed escalation rate — the planning prior before any model
// HIT has resolved.
func TestManagerPrices(t *testing.T) {
	mp := model.New(model.Config{Seed: 42, Profile: model.Sharp()})
	m := newHybridManager(t, 42, mp, func(c *Config) { c.ModelReward, c.ModelAssignments = 0, 0 })
	if got, want := m.Prices(), m.Config().Prices(defaultEscalationRate); got != want || got.Compare != 2.5 {
		t.Errorf("prices before feedback: got %+v want %+v (¢1 × 1 model defaults + a quarter of ¢2 × 3)", got, want)
	}
	h, _ := newManager(t, 42)
	if got, want := h.Prices(), (Prices{Compare: 6, Tuple: 2}); got != want {
		t.Errorf("human manager prices: got %+v want %+v", got, want)
	}
}
