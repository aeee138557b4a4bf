package processing

import (
	"fmt"
	"os"
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
	// in-memory map (the RocksDB stand-in of paper §4.4), under
	// JobConfig.DataDir. Its disk state is a checkpoint of its changelog,
	// so a restore replays only the changelog past it.
	Persistent bool
	// NoChangelog disables fault tolerance for this store: state is lost
	// on failure, and every task start opens it empty. The default (false)
	// publishes every update to a compacted changelog feed named
	// <job>-<store>-changelog, from which state is restored after failure
	// (paper §3.2).
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

// checkpoint commits a persistent store's disk state at its changelog
// partition's end. The caller has flushed the changelog producer, so the
// end covers every write the store holds.
func (s *changelogStore) checkpoint(c *client.Client) error {
	kv, ok := s.Store.(*state.KV)
	if !ok {
		return nil
	}
	end, err := c.ListOffset(s.topic, s.partition, wire.TimestampLatest)
	if err != nil {
		return fmt.Errorf("processing: changelog end: %w", err)
	}
	return kv.Checkpoint(end)
}

// openStores opens the local stores of one task and restores each from its
// changelog partition — the failure-recovery path of paper §3.2 — wrapping
// those with changelogs. It returns the number of records replayed.
func (j *Job) openStores(taskID int32) (map[string]state.Store, int, error) {
	// A failed attempt's changelog writes may still be buffered: send them
	// first, so the end restore reads to covers everything sent.
	if err := j.changelogProducer.Flush(); err != nil {
		return nil, 0, fmt.Errorf("processing: changelog flush: %w", err)
	}
	stores := make(map[string]state.Store, len(j.cfg.Stores))
	replayed := 0
	for _, spec := range j.cfg.Stores {
		s, n, err := j.openStore(spec, taskID)
		replayed += n
		if err != nil {
			for _, s := range stores {
				s.Close()
			}
			return nil, replayed, err
		}
		stores[spec.Name] = s
	}
	return stores, replayed, nil
}

// openStore opens one store and replays its changelog from the offset its
// checkpoint covers: 0 for an in-memory store, Offset() for a persistent
// one, reading whole batches and folding each through state.ApplyBatches.
func (j *Job) openStore(spec StoreSpec, taskID int32) (state.Store, int, error) {
	topic := changelogTopic(j.cfg.Name, spec.Name)
	var end int64
	if !spec.NoChangelog {
		var err error
		if end, err = j.client.ListOffset(topic, taskID, wire.TimestampLatest); err != nil {
			return nil, 0, fmt.Errorf("processing: changelog end: %w", err)
		}
	}
	var base state.Store = state.NewMem()
	from := int64(0)
	if spec.Persistent {
		dir := filepath.Join(j.cfg.DataDir, fmt.Sprintf("%s-%s-%d", j.cfg.Name, spec.Name, taskID))
		kv, err := state.OpenKV(dir)
		if err == nil && (spec.NoChangelog || kv.Offset() > end) {
			// Without a changelog the store starts empty; a checkpoint
			// past the changelog's end came from another history.
			kv.Close()
			if err = os.RemoveAll(dir); err == nil {
				kv, err = state.OpenKV(dir)
			}
		}
		if err != nil {
			return nil, 0, err
		}
		base, from = kv, kv.Offset()
	}
	if spec.NoChangelog {
		return base, 0, nil
	}
	n, err := j.replay(base, topic, taskID, from, end)
	if err != nil {
		base.Close()
		return nil, n, err
	}
	return &changelogStore{Store: base, topic: topic, partition: taskID, producer: j.changelogProducer}, n, nil
}

// replay folds a changelog partition's records in [from, end) into the
// unwrapped store; restoring must not re-publish. It returns the number of
// records replayed.
func (j *Job) replay(target state.Store, topic string, taskID int32, from, end int64) (int, error) {
	if from >= end {
		return 0, nil
	}
	cons := client.NewConsumer(j.client, client.ConsumerConfig{})
	defer cons.Close()
	if err := cons.Assign(topic, taskID, from); err != nil {
		return 0, err
	}
	replayed := 0
	for cons.Position(topic, taskID) < end {
		batches, err := cons.PollBatches(time.Second)
		for i := 0; err == nil && i < len(batches); i++ {
			var n int
			_, n, err = state.ApplyBatches(target, batches[i].Data, batches[i].Info.BaseOffset)
			replayed += n
		}
		if err != nil {
			return replayed, fmt.Errorf("processing: restore %s/%d: %w", topic, taskID, err)
		}
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
