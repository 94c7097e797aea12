// Package mobile simulates CrowdDB's locality-aware mobile crowdsourcing
// platform (paper §4, [2]): tasks are posted to people in a specific
// geographic area — at VLDB, the conference attendees. Compared to AMT the
// pool is small but co-located and domain-expert (attendees answering
// questions about talks they just saw), so latency is low and answer
// quality for conference topics is high.
package mobile

import (
	"time"

	"crowddb/internal/crowd"
	"crowddb/internal/sim"
)

// Venue describes where the platform's crowd is gathered.
type Venue struct {
	Name     string
	Lat, Lon float64
	RadiusKM float64
}

// VLDB2011 is the demo venue: the conference hotel in Seattle.
var VLDB2011 = Venue{Name: "VLDB 2011, Seattle", Lat: 47.6062, Lon: -122.3321, RadiusKM: 1.0}

// Config tunes the mobile platform.
type Config struct {
	Seed  int64
	Venue Venue
	// Attendees is the size of the local crowd.
	Attendees int
	// ExpertAccuracy is the mean accuracy of attendees on conference
	// topics (higher than generic AMT workers).
	ExpertAccuracy float64
}

// DefaultConfig returns a VLDB-sized mobile crowd.
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, Venue: VLDB2011, Attendees: 400, ExpertAccuracy: 0.93}
}

// Platform is the simulated mobile crowdsourcing service.
type Platform struct {
	venue  Venue
	market *sim.Market
}

// New builds the mobile platform with its local crowd.
func New(cfg Config) *Platform {
	mcfg := sim.DefaultConfig()
	mcfg.Seed = cfg.Seed
	// The local crowd: small, clustered inside the venue, expert, fast.
	mcfg.Pool.Size = cfg.Attendees
	mcfg.Pool.SpammerFrac = 0.03 // conference attendees rarely spam
	mcfg.Pool.AccuracyMean = cfg.ExpertAccuracy
	mcfg.Pool.AccuracySpread = 0.04
	mcfg.Pool.GarbageRate = 0.01
	mcfg.Pool.Region = &sim.Region{
		LatMin: cfg.Venue.Lat - 0.004, LatMax: cfg.Venue.Lat + 0.004,
		LonMin: cfg.Venue.Lon - 0.006, LonMax: cfg.Venue.Lon + 0.006,
	}
	// Phones in pockets at a conference: arrivals are brisk during the
	// event, individual answers quick.
	mcfg.BaseArrivalPerHour = 30
	mcfg.MeanHITsPerVisit = 4
	mcfg.LatencyMedian = 20 * time.Second
	mcfg.LatencySigma = 0.6
	mcfg.AffinityProb = 0.5
	return &Platform{venue: cfg.Venue, market: sim.NewMarket(mcfg)}
}

// Name implements crowd.Platform.
func (p *Platform) Name() string { return "mobile" }

// Post implements crowd.Platform. Groups without an explicit venue fence
// are fenced to the platform's venue — every mobile task is local.
func (p *Platform) Post(g *crowd.HITGroup) (crowd.GroupID, error) {
	if g.Venue == nil {
		fenced := *g
		fenced.Venue = &crowd.GeoFence{Lat: p.venue.Lat, Lon: p.venue.Lon, RadiusKM: p.venue.RadiusKM}
		g = &fenced
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

// Block bars a device's worker from future assignments.
func (p *Platform) Block(workerID string) { p.market.Block(workerID) }

// Market exposes the underlying simulator for benchmarks.
func (p *Platform) Market() *sim.Market { return p.market }
