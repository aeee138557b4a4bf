// Package tier implements tiered log storage for the messaging layer: the
// leader of each partition uploads sealed (rolled, below-high-watermark)
// log segments to the DFS byte for byte, tracks them in a per-partition
// tier manifest committed by atomic rename, and serves reads below the
// local log start transparently from the cold tier through a bounded LRU of
// indexed segment readers. Hot and cold hold one batch container: a cold
// read returns the batches the producer sealed, with their codec, producer
// stamps and CRC-32C intact; compression is the producer's choice
// (ProducerConfig.Codec), never the tier's.
//
// This closes the gap the paper's design promises to close (§2, §4.1 log
// retention, §4.2 annotated checkpoints): a consumer can rewind "as far
// back as needed" through the same fetch API, because the local hot log and
// the DFS cold tier are two tiers of one logical log rather than two
// disconnected stacks. Retention splits accordingly: the hot horizon bounds
// local bytes/age (enforced by storage/log, which never deletes a record
// the offloader has not committed to the manifest), and the total horizon
// bounds the tiered log as a whole (enforced here, against the cold tier).
//
// Crash safety follows internal/archive's discipline exactly: segment
// upload (tmp write + atomic rename), then manifest commit (tmp write +
// atomic rename with sequence fencing), then local deletion. A crash
// between upload and commit leaves an orphan segment file that the next
// leader sweeps on open; a crash between commit and local deletion leaves a
// harmless overlap that the read path resolves by preferring the hot copy.
package tier

import "errors"

// Errors returned by the tier engine.
var (
	// ErrOffsetBelowTier reports a read below the earliest tiered offset:
	// the record is gone from both tiers (total retention deleted it).
	ErrOffsetBelowTier = errors.New("tier: offset below earliest tiered offset")
	// ErrNotCovered reports a read that no tiered segment covers (the
	// offset sits above the offload frontier; the hot log owns it).
	ErrNotCovered = errors.New("tier: offset not covered by tiered segments")
	// ErrConflict reports a manifest or segment commit lost to a concurrent
	// writer (a newer leader took the partition over); the caller must
	// reload before offloading further.
	ErrConflict = errors.New("tier: manifest committed concurrently")
)

// Config parameterises one partition's tier engine.
type Config struct {
	// Root is the DFS prefix tiered data lives under (default "/tier").
	Root string
	// TotalRetentionMs / TotalRetentionBytes bound the tiered log as a
	// whole (hot + cold): cold segments older than TotalRetentionMs, or the
	// oldest cold segments while hot+cold bytes exceed TotalRetentionBytes,
	// are deleted and the tier start offset advances. <= 0 disables each.
	TotalRetentionMs    int64
	TotalRetentionBytes int64
	// OnUploaded is a crash-injection hook for recovery tests: it runs
	// after a segment file is renamed into place and before the manifest
	// commit — the exact window a crash leaves an orphan segment. Returning
	// an error aborts the offload there. Nil in production.
	OnUploaded func(path string) error
}

func (c Config) withDefaults() Config {
	if c.Root == "" {
		c.Root = "/tier"
	}
	return c
}
