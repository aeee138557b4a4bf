package cluster

import (
	"errors"
	"log/slog"
	"time"

	"repro/internal/coord"
)

// Controller is the cluster-wide leadership manager. Every broker runs one;
// they race for the /controller ephemeral node and exactly one wins. The
// winner watches broker registrations and, when a broker dies, moves
// leadership of its partitions to another in-sync replica (paper §4.3
// "hand-over process selects a new leader among its followers").
type Controller struct {
	reg      *Registry
	sid      coord.SessionID
	brokerID int32
	logger   *slog.Logger

	stop chan struct{}
	done chan struct{}
}

// NewController creates a controller candidate for a broker.
func NewController(reg *Registry, sid coord.SessionID, brokerID int32, logger *slog.Logger) *Controller {
	if logger == nil {
		logger = slog.Default()
	}
	return &Controller{
		reg:      reg,
		sid:      sid,
		brokerID: brokerID,
		logger:   logger.With("component", "controller", "broker", brokerID),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the election/failover loop.
func (c *Controller) Start() {
	go c.run()
}

// Stop halts the loop and waits for it to exit.
func (c *Controller) Stop() {
	close(c.stop)
	<-c.done
}

func (c *Controller) run() {
	defer close(c.done)
	// Watch broker registrations and the controller node before electing,
	// so no deletion can slip between the initial scan and the watch.
	events, cancel := c.reg.Store().Watch("/")
	defer func() { cancel() }()

	if c.tryElect() {
		c.failoverAll()
	}
	for {
		select {
		case <-c.stop:
			return
		case ev, ok := <-events:
			if !ok {
				// Watch overflowed: re-register and resync.
				cancel()
				events, cancel = c.reg.Store().Watch("/")
				if c.IsController() {
					c.failoverAll()
				}
				continue
			}
			switch {
			case ev.Path == ControllerPath && ev.Type == coord.EventDeleted:
				// The seat is free: race for it, whether or not this
				// controller held it. One whose session closed loses.
				if c.tryElect() {
					c.failoverAll()
				}
			case ev.Type == coord.EventDeleted:
				// A controller acts only while it holds the seat, read
				// live: a closed session's ephemeral nodes all go at once
				// but their events arrive in no fixed order, so the
				// deletion of this broker's own node can come before the
				// seat's.
				if id, ok := ParseBrokerPath(ev.Path); ok && c.IsController() {
					c.logger.Info("broker failure detected", "dead", id)
					c.handleBrokerFailure(id)
				}
			}
		}
	}
}

// tryElect attempts to win the controller election.
func (c *Controller) tryElect() bool {
	won, err := c.reg.ElectController(c.sid, c.brokerID)
	if err != nil {
		return false
	}
	if won {
		c.logger.Info("elected controller")
	}
	return won
}

// IsController reports whether this broker currently holds the seat.
func (c *Controller) IsController() bool {
	return c.reg.ControllerID() == c.brokerID
}

// failoverAll sweeps every partition, repairing leadership for any whose
// leader is dead. Run when winning the election, since failures may have
// happened while there was no controller.
func (c *Controller) failoverAll() {
	live := liveSet(c.reg)
	for _, topic := range c.reg.Topics() {
		info, err := c.reg.GetTopic(topic)
		if err != nil {
			continue
		}
		for p := range info.Assignment {
			c.repairPartition(topic, int32(p), live)
		}
	}
}

// handleBrokerFailure repairs every partition the dead broker led or
// replicated.
func (c *Controller) handleBrokerFailure(dead int32) {
	live := liveSet(c.reg)
	for _, topic := range c.reg.Topics() {
		info, err := c.reg.GetTopic(topic)
		if err != nil {
			continue
		}
		for p, replicas := range info.Assignment {
			affected := false
			for _, r := range replicas {
				if r == dead {
					affected = true
					break
				}
			}
			if affected {
				c.repairPartition(topic, int32(p), live)
			}
		}
	}
}

// repairPartition re-elects a leader from the ISR if the current leader is
// dead, and shrinks the ISR to live brokers. Retries CAS conflicts against
// concurrent leader-side ISR updates.
func (c *Controller) repairPartition(topic string, partition int32, live map[int32]bool) {
	for attempt := 0; attempt < 5; attempt++ {
		st, ver, err := c.reg.PartitionState(topic, partition)
		if err != nil {
			return
		}
		newISR := st.ISR[:0:0]
		for _, r := range st.ISR {
			if live[r] {
				newISR = append(newISR, r)
			}
		}
		leaderDead := !live[st.Leader] || st.Leader < 0
		if !leaderDead && len(newISR) == len(st.ISR) {
			return // nothing to repair
		}
		next := st
		next.ISR = newISR
		if leaderDead {
			if len(newISR) > 0 {
				next.Leader = newISR[0]
			} else {
				// No in-sync replica left: partition offline until a
				// replica returns. Electing an out-of-sync replica would
				// lose committed data (unclean election), which the
				// design forbids.
				next.Leader = -1
			}
			next.Epoch = st.Epoch + 1
		}
		if _, err := c.reg.SetPartitionState(topic, partition, next, ver); err != nil {
			if errors.Is(err, coord.ErrBadVersion) {
				time.Sleep(time.Millisecond)
				continue
			}
			return
		}
		c.logger.Info("partition repaired",
			"topic", topic, "partition", partition,
			"leader", next.Leader, "epoch", next.Epoch, "isr", next.ISR)
		return
	}
}

// liveSet snapshots live broker ids.
func liveSet(reg *Registry) map[int32]bool {
	out := make(map[int32]bool)
	for _, b := range reg.LiveBrokers() {
		out[b.ID] = true
	}
	return out
}
