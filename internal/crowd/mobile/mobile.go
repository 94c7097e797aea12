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

// Platform is the simulated mobile crowdsourcing service. The market
// serves crowd.Platform's group lifecycle (Status, Results, Reject,
// Expire, Step, Now) and blocks a device's worker; benchmarks read worker
// stats off it.
type Platform struct {
	*sim.Market
	venue Venue
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
	return &Platform{Market: sim.NewMarket(mcfg), venue: cfg.Venue}
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
	return p.Market.Post(g)
}

// Approve implements crowd.Platform.
func (p *Platform) Approve(assignmentID string, bonus crowd.Cents) error {
	_, err := p.Market.Approve(assignmentID, bonus)
	return err
}
