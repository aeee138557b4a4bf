package processing

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/state"
	"repro/internal/wire"
)

// StoreSpec declares one state store of a job.
type StoreSpec struct {
	// Name is the handle tasks use via TaskContext.Store.
	Name string
	// Persistent selects the on-disk log-structured store instead of the
	// in-memory map (the RocksDB stand-in of paper §4.4).
	Persistent bool
	// NoChangelog disables fault tolerance for this store: state is lost
	// on failure. The default (false) publishes every update to a
	// compacted changelog feed named <job>-<store>-changelog, from which
	// state is restored after failure (paper §3.2).
	NoChangelog bool
}

// changelogTopic names the derived feed backing a store.
func changelogTopic(job, store string) string {
	return fmt.Sprintf("%s-%s-changelog", job, store)
}

// changelogStore wraps a local store, mirroring every write to the
// changelog feed. Reads are local (paper §3.2: "stateful jobs access state
// locally for efficiency").
type changelogStore struct {
	state.Store
	topic     string
	partition int32
	producer  *client.Producer
}

// Put writes locally and appends to the changelog.
func (s *changelogStore) Put(key, value []byte) error {
	if err := s.Store.Put(key, value); err != nil {
		return err
	}
	return s.producer.SendExplicit(client.Message{
		Topic:     s.topic,
		Partition: s.partition,
		Key:       key,
		Value:     value,
	})
}

// Delete removes locally and appends a tombstone to the changelog.
func (s *changelogStore) Delete(key []byte) error {
	if err := s.Store.Delete(key); err != nil {
		return err
	}
	return s.producer.SendExplicit(client.Message{
		Topic:     s.topic,
		Partition: s.partition,
		Key:       key,
		Value:     nil,
	})
}

// buildStores creates the local stores for one task, wrapping them with
// changelogs where configured.
func (j *Job) buildStores(taskID int32) (map[string]state.Store, error) {
	stores := make(map[string]state.Store, len(j.cfg.Stores))
	for _, spec := range j.cfg.Stores {
		var base state.Store
		if spec.Persistent {
			dir := filepath.Join(j.cfg.DataDir, fmt.Sprintf("%s-%s-%d", j.cfg.Name, spec.Name, taskID))
			kv, err := state.OpenKV(dir, state.KVConfig{})
			if err != nil {
				return nil, err
			}
			base = kv
		} else {
			base = state.NewMem()
		}
		if spec.NoChangelog {
			stores[spec.Name] = base
			continue
		}
		stores[spec.Name] = &changelogStore{
			Store:     base,
			topic:     changelogTopic(j.cfg.Name, spec.Name),
			partition: taskID,
			producer:  j.changelogProducer,
		}
	}
	return stores, nil
}

// restoreStores replays each store's changelog partition into the local
// store — the failure-recovery path of paper §3.2 — reading whole batches
// and folding each through state.ApplyBatches. It returns the number of
// records replayed.
func (j *Job) restoreStores(taskID int32, stores map[string]state.Store) (int, error) {
	replayed := 0
	for _, spec := range j.cfg.Stores {
		if spec.NoChangelog {
			continue
		}
		topic := changelogTopic(j.cfg.Name, spec.Name)
		target := stores[spec.Name]
		// Bypass the changelog wrapper: restoring must not re-publish.
		if cs, ok := target.(*changelogStore); ok {
			target = cs.Store
		}
		end, err := j.client.ListOffset(topic, taskID, wire.TimestampLatest)
		if err != nil {
			return replayed, fmt.Errorf("processing: changelog end: %w", err)
		}
		if end == 0 {
			continue
		}
		cons := client.NewConsumer(j.client, client.ConsumerConfig{})
		if err := cons.Assign(topic, taskID, client.StartEarliest); err != nil {
			cons.Close()
			return replayed, err
		}
		for cons.Position(topic, taskID) < end {
			batches, err := cons.PollBatches(time.Second)
			for i := 0; err == nil && i < len(batches); i++ {
				var n int
				_, n, err = state.ApplyBatches(target, batches[i].Data, batches[i].Info.BaseOffset)
				replayed += n
			}
			if err != nil {
				cons.Close()
				return replayed, fmt.Errorf("processing: restore %s/%d: %w", topic, taskID, err)
			}
		}
		cons.Close()
	}
	return replayed, nil
}

// ensureChangelogTopics creates the compacted changelog topics sized to
// the job's task count.
func (j *Job) ensureChangelogTopics(numTasks int32) error {
	for _, spec := range j.cfg.Stores {
		if spec.NoChangelog {
			continue
		}
		err := j.client.CreateTopic(wire.TopicSpec{
			Name:              changelogTopic(j.cfg.Name, spec.Name),
			NumPartitions:     numTasks,
			ReplicationFactor: j.cfg.ChangelogReplication,
			Compacted:         true,
		})
		if err != nil && wire.Code(err) != wire.ErrTopicAlreadyExists {
			return err
		}
	}
	return nil
}
