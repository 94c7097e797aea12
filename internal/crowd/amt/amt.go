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
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/sim"
)

// Platform is the in-process simulated AMT.
type Platform struct {
	market *sim.Market
}

// New builds an AMT simulation over an existing market.
func New(market *sim.Market) *Platform { return &Platform{market: market} }

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
	return p.market.Post(g)
}

// Status implements crowd.Platform.
func (p *Platform) Status(id crowd.GroupID) (crowd.GroupStatus, error) {
	return p.market.Status(id)
}

// Results implements crowd.Platform.
func (p *Platform) Results(id crowd.GroupID) ([]*crowd.Assignment, error) {
	return p.market.Results(id)
}

// Approve implements crowd.Platform.
func (p *Platform) Approve(assignmentID string, bonus crowd.Cents) error {
	_, err := p.market.Approve(assignmentID, bonus)
	return err
}

// Reject implements crowd.Platform.
func (p *Platform) Reject(assignmentID, reason string) error {
	return p.market.Reject(assignmentID, reason)
}

// Expire implements crowd.Platform.
func (p *Platform) Expire(id crowd.GroupID) error { return p.market.Expire(id) }

// Step implements crowd.Platform.
func (p *Platform) Step(d time.Duration) { p.market.Step(d) }

// Now implements crowd.Platform.
func (p *Platform) Now() time.Duration { return p.market.Now() }

// Block bars a worker from future assignments (AMT's worker-block
// operation; the WRM escalates to it for persistently bad workers).
func (p *Platform) Block(workerID string) { p.market.Block(workerID) }

// Market exposes the underlying simulator (benchmarks read worker stats).
func (p *Platform) Market() *sim.Market { return p.market }
