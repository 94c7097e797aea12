// Package amt simulates the Amazon Mechanical Turk platform CrowdDB posts
// to (paper §3, [1]). It adapts the worker-market simulator to the
// crowd.Platform interface and adds the AMT-specific mechanics CrowdDB's
// prototype dealt with: HIT-group lifecycle operations, worker blocks, and
// no geo-fenced groups (those go to the mobile platform).
//
// The Task Manager calls it in process, through crowd.Platform; there is
// no network binding. A connector to the real AMT would be written
// against AMT's own API.
package amt

import (
	"fmt"

	"crowddb/internal/crowd"
	"crowddb/internal/sim"
)

// Platform is the in-process simulated AMT. The market serves
// crowd.Platform's group lifecycle (Status, Results, Reject, Expire,
// Step, Now) and AMT's worker block; benchmarks read worker stats off it.
type Platform struct {
	*sim.Market
}

// New builds an AMT simulation over an existing market.
func New(market *sim.Market) *Platform { return &Platform{market} }

// NewDefault builds an AMT simulation with the default AMT-like market,
// seeded for reproducibility.
func NewDefault(seed int64) *Platform {
	cfg := sim.DefaultConfig()
	cfg.Seed = seed
	return New(sim.NewMarket(cfg))
}

// Name implements crowd.Platform.
func (p *Platform) Name() string { return "amt" }

// Post implements crowd.Platform.
func (p *Platform) Post(g *crowd.HITGroup) (crowd.GroupID, error) {
	if g.Venue != nil {
		return "", fmt.Errorf("amt: geo-fenced groups are not supported on AMT; use the mobile platform")
	}
	return p.Market.Post(g)
}

// Approve implements crowd.Platform.
func (p *Platform) Approve(assignmentID string, bonus crowd.Cents) error {
	_, err := p.Market.Approve(assignmentID, bonus)
	return err
}
