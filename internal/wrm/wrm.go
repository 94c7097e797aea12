// Package wrm implements CrowdDB's Worker Relationship Manager (paper §3):
// "crowd workers are not fungible resources and the worker/requester
// relationship evolves over time". The WRM pays workers promptly, grants
// bonuses to consistently good workers and blocks persistent spammers —
// building the requester's community. Each decision is a platform call;
// the WRM remembers only who has had their bonus and who is blocked.
package wrm

import (
	"fmt"
	"sync"

	"crowddb/internal/crowd"
	"crowddb/internal/quality"
)

// PaymentPolicy decides how assignments are paid.
type PaymentPolicy struct {
	// AutoApprove pays every submitted assignment whose worker score is at
	// least RejectBelow; the paper's WRM "assists the requester with paying
	// workers in time".
	AutoApprove bool
	// RejectBelow is the agreement-score floor under which assignments are
	// rejected instead of paid (0 = never reject).
	RejectBelow float64
	// BonusAbove grants BonusAmount to workers whose score exceeds it.
	BonusAbove  float64
	BonusAmount crowd.Cents
	// BlockBelow escalates beyond rejection: workers whose score falls
	// under it are blocked from future assignments on platforms that
	// support blocking (0 = never block).
	BlockBelow float64
}

// Blocker is implemented by platforms that can bar workers from future
// assignments (every platform built on sim.Market does; on the model tier,
// where no worker arrives, a block changes nothing).
type Blocker interface {
	Block(workerID string)
}

// DefaultPolicy pays everyone, rejects workers who almost always disagree
// with the majority, and tips the best workers a cent.
func DefaultPolicy() PaymentPolicy {
	return PaymentPolicy{AutoApprove: true, RejectBelow: 0.2, BonusAbove: 0.9, BonusAmount: 1}
}

// Manager is the WRM. It wraps a platform's payment operations with policy.
type Manager struct {
	policy  PaymentPolicy
	tracker *quality.Tracker

	mu      sync.Mutex
	bonused map[string]bool // workers already bonused (one per relationship)
	blocked map[string]bool
}

// New creates a WRM with the given policy and quality tracker.
func New(policy PaymentPolicy, tracker *quality.Tracker) *Manager {
	return &Manager{policy: policy, tracker: tracker,
		bonused: make(map[string]bool), blocked: make(map[string]bool)}
}

// Settle applies the payment policy to a batch of submitted assignments on
// a platform, approving (with possible bonus) or rejecting each. It returns
// the number approved.
func (m *Manager) Settle(p crowd.Platform, assignments []*crowd.Assignment) (approved int, err error) {
	for _, a := range assignments {
		if a.Status != crowd.AssignmentSubmitted {
			continue
		}
		score := m.tracker.Score(a.WorkerID)
		if m.policy.BlockBelow > 0 && score < m.policy.BlockBelow {
			if blocker, ok := p.(Blocker); ok && m.firstTime(m.blocked, a.WorkerID) {
				blocker.Block(a.WorkerID)
			}
		}
		if m.policy.RejectBelow > 0 && score < m.policy.RejectBelow {
			if err := p.Reject(a.ID, "answers consistently disagree with the majority"); err != nil {
				return approved, fmt.Errorf("wrm: reject %s: %w", a.ID, err)
			}
			continue
		}
		if !m.policy.AutoApprove {
			continue
		}
		var bonus crowd.Cents
		if m.policy.BonusAbove > 0 && score > m.policy.BonusAbove && m.firstTime(m.bonused, a.WorkerID) {
			bonus = m.policy.BonusAmount
		}
		if err := p.Approve(a.ID, bonus); err != nil {
			return approved, fmt.Errorf("wrm: approve %s: %w", a.ID, err)
		}
		approved++
	}
	return approved, nil
}

// firstTime marks workerID in set, reporting whether it was not there yet.
func (m *Manager) firstTime(set map[string]bool, workerID string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if set[workerID] {
		return false
	}
	set[workerID] = true
	return true
}
