package broker

import (
	"errors"
	"net"
	"reflect"
	"time"

	"repro/internal/cluster"
	"repro/internal/coord"
	"repro/internal/storage/log"
	"repro/internal/storage/record"
	"repro/internal/wire"
)

// acceptLoop serves client and replica connections. Each connection is
// handled by one goroutine processing requests serially; blocking APIs
// (long-poll fetch, join barriers) therefore block only their own
// connection, which clients know to dedicate.
func (b *Broker) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.listener.Accept()
		if err != nil {
			return // listener closed on shutdown
		}
		b.mu.Lock()
		if b.stopped {
			b.mu.Unlock()
			conn.Close()
			return
		}
		b.conns[conn] = struct{}{}
		b.mu.Unlock()
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			defer func() {
				conn.Close()
				b.mu.Lock()
				delete(b.conns, conn)
				b.mu.Unlock()
			}()
			b.serveConn(conn)
		}()
	}
}

func (b *Broker) serveConn(conn net.Conn) {
	// The frame buffer is reused across requests on this connection:
	// dispatch fully consumes each request (produce payloads are appended
	// to the log before the next frame is read), and anything a handler
	// retains longer — group metadata, offset commits — is copied during
	// decode. Responses go out through pooled writers as a single frame.
	var rbuf []byte
	for {
		select {
		case <-b.stopCh:
			return
		default:
		}
		payload, err := wire.ReadFrameInto(conn, rbuf)
		if err != nil {
			return
		}
		// Keep the buffer for reuse, but never pin a giant frame's worth
		// of memory to an idle connection.
		if cap(payload) <= 1<<20 {
			rbuf = payload
		} else {
			rbuf = nil
		}
		hdr, body, err := wire.DecodeRequest(payload)
		if err != nil {
			return
		}
		// Instrumentation wraps dispatch only: handler time including any
		// long-poll wait, excluding frame I/O.
		start := b.now()
		resp, reply, delay := b.dispatch(hdr, body)
		if resp == nil {
			// An unknown API or a body that does not decode has no honest
			// answer: any response body would read to the client as some
			// success. Close the connection, as for a bad header.
			return
		}
		b.met.noteRequest(hdr.API, hdr.ClientID, len(payload), resp, b.since(start))
		if !reply {
			// Fire-and-forget (acks=0) has no response frame to carry a
			// ThrottleTimeMs verdict, so the quota penalty is applied as
			// socket-level backpressure instead: delay reading this
			// connection's next frame. Only this principal's own
			// connection goroutine sleeps — shared broker state is
			// untouched — which is what keeps an acks=0 flood from
			// bypassing quotas entirely.
			if delay > 0 {
				if delay > maxThrottle {
					delay = maxThrottle
				}
				select {
				case <-b.after(delay):
				case <-b.stopCh:
					return
				}
			}
			continue
		}
		err = wire.WriteResponseFrame(conn, hdr.CorrelationID, resp)
		if fr, ok := resp.(*wire.FetchResponse); ok {
			// Zero-copy fetch responses hold open segment file ranges
			// until their bytes are spliced into the frame.
			closeFetchRanges(fr)
		}
		if err != nil {
			return
		}
	}
}

// dispatch decodes and routes one request. reply=false means the request
// is fire-and-forget (acks=0 produce) and no response frame is written;
// delay then carries the quota penalty the serve loop must apply as
// socket-level backpressure (it is always 0 when reply is true). A nil
// response means the request has an unknown API key or does not decode.
func (b *Broker) dispatch(hdr wire.RequestHeader, r *wire.Reader) (wire.Message, bool, time.Duration) {
	body, ok := wire.NewRequestBody(hdr.API)
	if !ok {
		return nil, false, 0
	}
	body.Decode(r)
	if r.Done() != nil {
		return nil, false, 0
	}
	b.cfg.Metrics.Counter("broker.requests").Inc()
	// Every request charges the principal's request-rate quota — except
	// replication fetches, which are exempt end to end (throttling a
	// follower would starve the ISR, not the tenant causing the load).
	// The penalty is surfaced on produce/fetch responses
	// (ThrottleTimeMs); for other APIs the charge still drains the
	// bucket, so a flood of metadata or offset traffic shows up on the
	// next produce/fetch.
	var reqPenalty time.Duration
	if f, ok := body.(*wire.FetchRequest); !ok || f.ReplicaID < 0 {
		reqPenalty = b.quotas.chargeRequest(hdr.ClientID)
	}
	//wireclass:dispatch
	switch req := body.(type) {
	case *wire.ProduceRequest:
		resp := b.handleProduce(req, hdr.ClientID, reqPenalty)
		if req.RequiredAcks == 0 {
			return resp, false, time.Duration(resp.ThrottleTimeMs) * time.Millisecond
		}
		return resp, true, 0
	case *wire.FetchRequest:
		return b.handleFetch(req, hdr.ClientID, reqPenalty), true, 0
	case *wire.ListOffsetsRequest:
		return b.handleListOffsets(req), true, 0
	case *wire.MetadataRequest:
		return b.handleMetadata(req), true, 0
	case *wire.CreateTopicsRequest:
		return b.handleCreateTopics(req), true, 0
	case *wire.DeleteTopicsRequest:
		return b.handleDeleteTopics(req), true, 0
	case *wire.OffsetCommitRequest:
		return b.handleOffsetCommit(req), true, 0
	case *wire.OffsetFetchRequest:
		return b.handleOffsetFetch(req), true, 0
	case *wire.OffsetQueryRequest:
		return b.offsets.query(req), true, 0
	case *wire.TierStatusRequest:
		return b.handleTierStatus(req), true, 0
	case *wire.TableGetRequest:
		return b.handleTableGet(req), true, 0
	case *wire.TableRangeRequest:
		return b.handleTableRange(req), true, 0
	case *wire.DescribeQuotasRequest:
		return b.handleDescribeQuotas(req), true, 0
	case *wire.AlterQuotasRequest:
		return b.handleAlterQuotas(req), true, 0
	case *wire.FindCoordinatorRequest:
		return b.handleFindCoordinator(req), true, 0
	case *wire.InitProducerRequest:
		return b.handleInitProducer(req), true, 0
	case *wire.JoinGroupRequest:
		return <-b.groups.handleJoin(req, hdr.ClientID), true, 0
	case *wire.SyncGroupRequest:
		return <-b.groups.handleSync(req), true, 0
	case *wire.HeartbeatRequest:
		return &wire.HeartbeatResponse{Err: b.groups.handleHeartbeat(req)}, true, 0
	case *wire.LeaveGroupRequest:
		return &wire.LeaveGroupResponse{Err: b.groups.handleLeave(req)}, true, 0
	}
	return nil, false, 0
}

// ------------------------------------------------------------- produce

func (b *Broker) handleProduce(req *wire.ProduceRequest, principal string, reqPenalty time.Duration) *wire.ProduceResponse {
	resp := &wire.ProduceResponse{}
	// Charge the produce byte quota for the whole payload up front —
	// rejected batches cost the broker validation work too — and answer
	// immediately with the penalty; the handler never sleeps (the client
	// honors ThrottleTimeMs before its next request).
	payloadBytes := 0
	for _, t := range req.Topics {
		for _, p := range t.Partitions {
			payloadBytes += len(p.Records)
		}
	}
	penalty := maxDuration(reqPenalty, b.quotas.chargeProduce(principal, payloadBytes))
	resp.ThrottleTimeMs = throttleMs(penalty)
	type pending struct {
		topic int
		part  int
		ch    <-chan wire.ErrorCode
		dur   <-chan error
		dup   bool
	}
	var waits []pending
	timeout := time.Duration(req.TimeoutMs) * time.Millisecond
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	for _, t := range req.Topics {
		rt := wire.ProduceRespTopic{Name: t.Name}
		for _, p := range t.Partitions {
			rp := wire.ProduceRespPartition{Partition: p.Partition, BaseOffset: -1}
			r := b.getReplica(tp{topic: t.Name, partition: p.Partition})
			if r == nil {
				rp.Err = wire.ErrUnknownTopicOrPartition
				rt.Partitions = append(rt.Partitions, rp)
				continue
			}
			batches, nrecords, err := splitProducePayload(p.Records)
			if err != nil || nrecords == 0 {
				rp.Err = wire.ErrCorruptMessage
				rt.Partitions = append(rt.Partitions, rp)
				continue
			}
			base, ackCh, durCh, code := r.appendSealedAsLeader(batches, req.RequiredAcks)
			rp.Err = code
			rp.BaseOffset = base
			rp.HighWatermark = r.highWatermark()
			if code == wire.ErrNone {
				b.cfg.Metrics.Counter("broker.messages.in").Add(int64(nrecords))
			}
			if ackCh != nil || durCh != nil {
				waits = append(waits, pending{
					topic: len(resp.Topics), part: len(rt.Partitions), ch: ackCh, dur: durCh,
					dup: code == wire.ErrDuplicateSequence,
				})
			}
			rt.Partitions = append(rt.Partitions, rp)
		}
		resp.Topics = append(resp.Topics, rt)
	}
	if len(waits) > 0 {
		// Replication (acks=all) and group-commit durability share one
		// deadline: an ack is released only when both the ISR has the
		// batch and — under SyncGroup — the covering fdatasync has landed.
		deadline := newTimer(timeout)
		defer deadline.Stop()
		for _, w := range waits {
			code := wire.ErrNone
			if w.ch != nil {
				select {
				case code = <-w.ch:
				case <-deadline.C:
					code = wire.ErrRequestTimedOut
				case <-b.stopCh:
					code = wire.ErrBrokerNotAvailable
				}
			}
			if code == wire.ErrNone && w.dur != nil {
				select {
				case err := <-w.dur:
					code = durErrorCode(err)
				case <-deadline.C:
					code = wire.ErrRequestTimedOut
				case <-b.stopCh:
					code = wire.ErrBrokerNotAvailable
				}
			}
			if code == wire.ErrNone && w.dup {
				// The waits confirmed the ORIGINAL append is replicated and
				// durable; keep reporting the dedup so the client can tell a
				// dup-ack from a first append.
				code = wire.ErrDuplicateSequence
			}
			resp.Topics[w.topic].Partitions[w.part].Err = code
		}
	}
	return resp
}

// durErrorCode maps a group-commit durability outcome to a produce error.
func durErrorCode(err error) wire.ErrorCode {
	switch {
	case err == nil:
		return wire.ErrNone
	case errors.Is(err, log.ErrClosed):
		return wire.ErrBrokerNotAvailable
	default:
		// Truncated below the awaited offset (leadership lost before the
		// sync) or an fsync failure: the write may not survive.
		return wire.ErrUnknown
	}
}

// splitProducePayload splits a produce payload into its sealed batches,
// validating each one fully (record.ValidateBatch: CRC + a structural walk,
// inflating compressed bodies into a transient buffer) so a CRC-valid but
// malformed batch can never be stored and wedge the partition's readers.
// The stored bytes stay the producer's verbatim — validation never
// re-encodes or re-compresses; the leader only restamps base offsets.
// Producers send one batch per partition, but a payload of several
// consecutive batches is accepted. It returns the batches and the total
// record count.
func splitProducePayload(data []byte) ([][]byte, int, error) {
	var batches [][]byte
	nrecords := 0
	for len(data) > 0 {
		info, err := record.ValidateBatch(data)
		if err != nil {
			return nil, 0, err
		}
		batches = append(batches, data[:info.Length])
		nrecords += info.RecordCount
		data = data[info.Length:]
	}
	return batches, nrecords, nil
}

// --------------------------------------------------------------- fetch

func (b *Broker) handleFetch(req *wire.FetchRequest, principal string, reqPenalty time.Duration) *wire.FetchResponse {
	isFollower := req.ReplicaID >= 0
	maxWait := time.Duration(req.MaxWaitMs) * time.Millisecond
	if maxWait > 30*time.Second {
		maxWait = 30 * time.Second
	}
	minBytes := int(req.MinBytes)
	view := viewCommitted
	if isFollower {
		view = viewReplication
	}
	// One wait path for one partition or many: each pass first takes every
	// named replica's notify channel for this view, then reads; a pass that
	// falls short of MinBytes blocks until any of those channels fires (the
	// view's bound moving after the channel was taken closes it, so no
	// wake-up is lost), the request's one deadline timer fires or the broker
	// stops. Nothing polls.
	expired := maxWait <= 0
	deadline := newTimer(maxWait)
	defer deadline.Stop()
	wake := []reflect.SelectCase{recvCase(b.stopCh), recvCase(deadline.C)}
	for {
		wake = wake[:2]
		for _, t := range req.Topics {
			for _, p := range t.Partitions {
				if r := b.getReplica(tp{topic: t.Name, partition: p.Partition}); r != nil {
					wake = append(wake, recvCase(r.notifyChan(view)))
				}
			}
		}
		resp, total, hasError := b.collectFetch(req, view)
		if total >= minBytes || hasError || expired {
			if total > 0 {
				b.cfg.Metrics.Counter("broker.fetch.bytes").Add(int64(total))
			}
			// Replication fetches are quota-exempt: throttling a follower
			// would slow the ISR, not the tenant that caused the load.
			if !isFollower {
				penalty := maxDuration(reqPenalty, b.quotas.chargeFetch(principal, total))
				resp.ThrottleTimeMs = throttleMs(penalty)
			}
			return resp
		}
		// This pass is discarded for another long-poll round; release any
		// segment file handles its ranges hold.
		closeFetchRanges(resp)
		switch fired, _, _ := reflect.Select(wake); fired {
		case 0:
			return resp
		case 1:
			expired = true // one last pass answers with whatever is there
		}
	}
}

// recvCase is a receive on ch for reflect.Select.
func recvCase(ch any) reflect.SelectCase {
	return reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ch)}
}

// closeFetchRanges releases the segment file handles a fetch response
// holds. Called after the response frame is written (or when a
// long-poll pass discards the response).
func closeFetchRanges(resp *wire.FetchResponse) {
	for i := range resp.Topics {
		for j := range resp.Topics[i].Partitions {
			p := &resp.Topics[i].Partitions[j]
			if rng, ok := p.RecordsRange.(*log.SegmentRange); ok {
				rng.Close()
			}
			p.RecordsRange = nil
		}
	}
}

// collectFetch performs one non-blocking pass over the requested
// partitions. Hot reads resolve to raw segment file ranges, spliced into
// the response frame by the wire layer (sendfile on TCP); only cold-tier
// reads carry bytes.
func (b *Broker) collectFetch(req *wire.FetchRequest, view readView) (*wire.FetchResponse, int, bool) {
	resp := &wire.FetchResponse{}
	total := 0
	hasError := false
	// Follower catch-up times feed the ISR lag decision, which compares
	// against Config.Now — both sides must read the same (injectable)
	// clock or a fake clock would never (or always) shrink the ISR.
	now := b.cfg.Now()
	for _, t := range req.Topics {
		rt := wire.FetchRespTopic{Name: t.Name}
		for _, p := range t.Partitions {
			rp := wire.FetchRespPartition{Partition: p.Partition}
			r := b.getReplica(tp{topic: t.Name, partition: p.Partition})
			if r == nil {
				rp.Err = wire.ErrUnknownTopicOrPartition
				hasError = true
				rt.Partitions = append(rt.Partitions, rp)
				continue
			}
			maxBytes := int(p.MaxBytes)
			if maxBytes <= 0 {
				maxBytes = int(req.MaxBytes)
			}
			if maxBytes <= 0 {
				maxBytes = 1 << 20
			}
			res, code := r.read(p.Offset, maxBytes, view)
			if view == viewReplication && code == wire.ErrNone {
				for _, id := range r.onFollowerFetch(req.ReplicaID, p.Offset, now) {
					b.updateISR(r, id, true)
				}
			}
			rp.Err = code
			rp.HighWatermark = res.hw
			rp.LogStartOffset = res.earliest
			if res.rng != nil {
				rp.RecordsRange = res.rng
				total += int(res.rng.Len())
				b.cfg.Metrics.Counter("broker.fetch.splice.bytes").Add(res.rng.Len())
				b.met.fetchServed.With("splice").Inc()
			} else {
				rp.Records = res.cold
				total += len(res.cold)
				if len(res.cold) > 0 {
					b.met.fetchServed.With("buffered").Inc()
				}
			}
			if code != wire.ErrNone {
				hasError = true
			}
			rt.Partitions = append(rt.Partitions, rp)
		}
		resp.Topics = append(resp.Topics, rt)
	}
	return resp, total, hasError
}

// --------------------------------------------------------- list offsets

func (b *Broker) handleListOffsets(req *wire.ListOffsetsRequest) *wire.ListOffsetsResponse {
	resp := &wire.ListOffsetsResponse{}
	for _, t := range req.Topics {
		rt := wire.ListOffsetsRespTopic{Name: t.Name}
		for _, p := range t.Partitions {
			rp := wire.ListOffsetsRespPartition{Partition: p.Partition, Offset: -1}
			r := b.getReplica(tp{topic: t.Name, partition: p.Partition})
			if r == nil {
				rp.Err = wire.ErrUnknownTopicOrPartition
			} else {
				r.mu.Lock()
				isLeader := r.isLeader
				hw, epochStart := r.hw, r.epochStart
				r.mu.Unlock()
				switch {
				case !isLeader:
					rp.Err = wire.ErrNotLeaderForPartition
				case p.Timestamp == wire.TimestampLatest && hw < epochStart:
					// A new leader's hw may trail the old leader's
					// until it reaches the epoch start: answering it
					// would move the committed end backwards (KIP-207).
					rp.Err = wire.ErrLeaderNotAvailable
				case p.Timestamp == wire.TimestampEarliest:
					// Earliest means tiered-earliest on tiered topics:
					// the oldest offset a consumer can actually rewind
					// to, not just the oldest held locally.
					rp.Offset = r.earliestAvailable()
				case p.Timestamp == wire.TimestampLatest:
					rp.Offset = hw
				default:
					off, err := offsetForTimestamp(r, p.Timestamp)
					if err != nil {
						rp.Err = wire.ErrUnknown
					} else {
						if off > hw {
							off = hw
						}
						rp.Offset = off
						rp.Timestamp = p.Timestamp
					}
				}
			}
			rt.Partitions = append(rt.Partitions, rp)
		}
		resp.Topics = append(resp.Topics, rt)
	}
	return resp
}

// offsetForTimestamp resolves a timestamp to an offset across both tiers:
// the cold tier holds the oldest data, so it is consulted first; the hot
// log answers for anything newer.
func offsetForTimestamp(r *replica, ts int64) (int64, error) {
	if t := r.tierPartition(); t != nil {
		off, ok, err := t.OffsetForTimestamp(ts)
		if err != nil {
			return 0, err
		}
		if ok {
			return off, nil
		}
	}
	return r.log.OffsetForTimestamp(ts)
}

// ---------------------------------------------------------- tier status

// handleTierStatus reports per-partition tiered-storage state for the
// partitions this broker leads: hot/cold segment counts, tiered bytes, and
// the local vs tiered start offsets (cmd/liquid-admin `tier ls`).
func (b *Broker) handleTierStatus(req *wire.TierStatusRequest) *wire.TierStatusResponse {
	resp := &wire.TierStatusResponse{}
	names := req.Topics
	if len(names) == 0 {
		names = b.reg.Topics()
	}
	for _, name := range names {
		info, err := b.reg.GetTopic(name)
		if err != nil {
			resp.Topics = append(resp.Topics, wire.TierStatusTopic{
				Name: name,
				Partitions: []wire.TierStatusPartition{
					{Partition: -1, Err: wire.ErrUnknownTopicOrPartition},
				},
			})
			continue
		}
		rt := wire.TierStatusTopic{Name: name}
		for p := int32(0); p < int32(len(info.Assignment)); p++ {
			r := b.getReplica(tp{topic: name, partition: p})
			if r == nil {
				continue // not hosted here; another broker answers for it
			}
			rp := wire.TierStatusPartition{Partition: p, Tiered: info.Config.Tiered}
			r.mu.Lock()
			isLeader := r.isLeader
			r.mu.Unlock()
			if !isLeader {
				rp.Err = wire.ErrNotLeaderForPartition
				rt.Partitions = append(rt.Partitions, rp)
				continue
			}
			rp.LocalStartOffset = r.log.StartOffset()
			rp.EarliestOffset = r.earliestAvailable()
			rp.NextOffset = r.log.NextOffset()
			rp.LocalSegments = int32(r.log.SegmentCount())
			rp.LocalBytes = r.log.Size()
			if t := r.tierPartition(); t != nil {
				st := t.TierStats()
				rp.TieredNextOffset = st.NextOffset
				rp.TieredSegments = int32(st.Segments)
				rp.TieredBytes = st.Bytes
				rp.TieredRecords = st.Records
			}
			rt.Partitions = append(rt.Partitions, rp)
		}
		resp.Topics = append(resp.Topics, rt)
	}
	return resp
}

// ------------------------------------------------------------ metadata

func (b *Broker) handleMetadata(req *wire.MetadataRequest) *wire.MetadataResponse {
	resp := &wire.MetadataResponse{ControllerID: b.reg.ControllerID()}
	for _, info := range b.reg.LiveBrokers() {
		resp.Brokers = append(resp.Brokers, wire.BrokerMeta{ID: info.ID, Host: info.Host, Port: info.Port, OpsAddr: info.OpsAddr})
	}
	names := req.Topics
	if len(names) == 0 {
		names = b.reg.Topics()
	}
	for _, name := range names {
		tm := wire.TopicMeta{Name: name}
		info, err := b.reg.GetTopic(name)
		if err != nil {
			tm.Err = wire.ErrUnknownTopicOrPartition
			resp.Topics = append(resp.Topics, tm)
			continue
		}
		tm.Compacted = info.Config.Compacted
		for p, replicas := range info.Assignment {
			pm := wire.PartitionMeta{ID: int32(p), Leader: -1, Replicas: replicas}
			st, _, err := b.reg.PartitionState(name, int32(p))
			if err != nil {
				pm.Err = wire.ErrLeaderNotAvailable
			} else {
				pm.Leader = st.Leader
				pm.LeaderEpoch = st.Epoch
				pm.ISR = st.ISR
				if st.Leader < 0 {
					pm.Err = wire.ErrLeaderNotAvailable
				}
			}
			tm.Partitions = append(tm.Partitions, pm)
		}
		resp.Topics = append(resp.Topics, tm)
	}
	return resp
}

// --------------------------------------------------------- admin APIs

func (b *Broker) handleCreateTopics(req *wire.CreateTopicsRequest) *wire.CreateTopicsResponse {
	resp := &wire.CreateTopicsResponse{}
	for _, spec := range req.Topics {
		resp.Results = append(resp.Results, wire.TopicResult{
			Name: spec.Name,
			Err:  b.createTopic(spec),
		})
	}
	return resp
}

// createTopic validates a spec, computes the replica assignment over live
// brokers and publishes the topic. Every broker (including this one) adopts
// its replicas through the registry watch; this broker also adopts
// synchronously so the creating client can produce immediately.
func (b *Broker) createTopic(spec wire.TopicSpec) wire.ErrorCode {
	if spec.Name == "" || len(spec.Name) > 255 {
		return wire.ErrInvalidTopic
	}
	for _, c := range spec.Name {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.') {
			return wire.ErrInvalidTopic
		}
	}
	if spec.Tiered && spec.Compacted {
		// A compacted log retains by key, not by horizon; there is no
		// contiguous prefix to offload. This exclusion also keeps table
		// restore-from-0 a purely local read: a table's changelog can
		// never straddle the cold tier.
		return wire.ErrInvalidTopic
	}
	if spec.Table && !spec.Compacted {
		// A table is a view over the latest record per key; only a
		// compacted log retains exactly that set.
		return wire.ErrInvalidTopic
	}
	if spec.NumPartitions <= 0 {
		spec.NumPartitions = 1
	}
	if spec.ReplicationFactor <= 0 {
		spec.ReplicationFactor = 1
	}
	live := b.reg.LiveBrokers()
	ids := make([]int32, len(live))
	for i, info := range live {
		ids[i] = info.ID
	}
	assignment, err := cluster.AssignReplicas(ids, spec.NumPartitions, spec.ReplicationFactor)
	if err != nil {
		return wire.ErrNotEnoughReplicas
	}
	info := cluster.TopicInfo{
		Name: spec.Name,
		Config: cluster.TopicConfig{
			NumPartitions:     spec.NumPartitions,
			ReplicationFactor: spec.ReplicationFactor,
			RetentionMs:       spec.RetentionMs,
			RetentionBytes:    spec.RetentionBytes,
			SegmentBytes:      spec.SegmentBytes,
			Compacted:         spec.Compacted,
			Tiered:            spec.Tiered,
			HotRetentionMs:    spec.HotRetentionMs,
			HotRetentionBytes: spec.HotRetentionBytes,
			Table:             spec.Table,
		},
		Assignment: assignment,
	}
	if err := b.reg.CreateTopic(info); err != nil {
		if errors.Is(err, coord.ErrExists) {
			return wire.ErrTopicAlreadyExists
		}
		return wire.ErrUnknown
	}
	b.ensureTopic(info)
	return wire.ErrNone
}

func (b *Broker) handleDeleteTopics(req *wire.DeleteTopicsRequest) *wire.DeleteTopicsResponse {
	resp := &wire.DeleteTopicsResponse{}
	for _, name := range req.Names {
		code := wire.ErrNone
		if err := b.reg.DeleteTopic(name); err != nil {
			code = wire.ErrUnknownTopicOrPartition
		}
		resp.Results = append(resp.Results, wire.TopicResult{Name: name, Err: code})
	}
	return resp
}

// -------------------------------------------------------- offset APIs

// ensureOffsetsTopic creates the internal offsets topic on first use: a
// compacted table, so the table host materializes its checkpoints.
func (b *Broker) ensureOffsetsTopic() {
	if _, err := b.reg.GetTopic(OffsetsTopic); err == nil {
		return
	}
	rf := b.cfg.OffsetsReplication
	if n := len(b.reg.LiveBrokers()); int(rf) > n {
		rf = int16(n)
	}
	b.createTopic(wire.TopicSpec{
		Name:              OffsetsTopic,
		NumPartitions:     b.cfg.OffsetsPartitions,
		ReplicationFactor: rf,
		Compacted:         true,
		Table:             true,
	})
}

func (b *Broker) handleFindCoordinator(req *wire.FindCoordinatorRequest) *wire.FindCoordinatorResponse {
	b.ensureOffsetsTopic()
	partition := groupPartition(req.Key, b.cfg.OffsetsPartitions)
	st, _, err := b.reg.PartitionState(OffsetsTopic, partition)
	if err != nil || st.Leader < 0 {
		return &wire.FindCoordinatorResponse{Err: wire.ErrCoordinatorNotAvailable, NodeID: -1}
	}
	for _, info := range b.reg.LiveBrokers() {
		if info.ID == st.Leader {
			return &wire.FindCoordinatorResponse{NodeID: info.ID, Host: info.Host, Port: info.Port}
		}
	}
	return &wire.FindCoordinatorResponse{Err: wire.ErrCoordinatorNotAvailable, NodeID: -1}
}

// handleInitProducer allocates an idempotent-producer identity through the
// coordination store; any broker can serve it. Named producers get their
// stable id back with a bumped epoch, fencing earlier instances.
func (b *Broker) handleInitProducer(req *wire.InitProducerRequest) *wire.InitProducerResponse {
	pi, err := b.reg.AllocateProducer(req.Name)
	if err != nil {
		return &wire.InitProducerResponse{Err: wire.ErrCoordinatorNotAvailable, ProducerID: -1, Epoch: -1}
	}
	return &wire.InitProducerResponse{ProducerID: pi.ID, Epoch: pi.Epoch}
}

func (b *Broker) handleOffsetCommit(req *wire.OffsetCommitRequest) *wire.OffsetCommitResponse {
	resp := &wire.OffsetCommitResponse{}
	for _, t := range req.Topics {
		rt := wire.OffsetCommitRespTopic{Name: t.Name}
		for _, p := range t.Partitions {
			code := b.offsets.commit(req.Group, t.Name, p.Partition, p.Offset, p.Metadata)
			rt.Partitions = append(rt.Partitions, wire.OffsetCommitRespPartition{
				Partition: p.Partition,
				Err:       code,
			})
		}
		resp.Topics = append(resp.Topics, rt)
	}
	return resp
}

func (b *Broker) handleOffsetFetch(req *wire.OffsetFetchRequest) *wire.OffsetFetchResponse {
	resp := &wire.OffsetFetchResponse{}
	for _, t := range req.Topics {
		rt := wire.OffsetFetchRespTopic{Name: t.Name}
		for _, p := range t.Partitions {
			cp, found, code := b.offsets.fetch(req.Group, t.Name, p)
			rp := wire.OffsetFetchRespPartition{Partition: p, Err: code, Offset: -1}
			if found {
				rp.Offset = cp.Offset
				rp.Metadata = cp.Metadata
			}
			rt.Partitions = append(rt.Partitions, rp)
		}
		resp.Topics = append(resp.Topics, rt)
	}
	return resp
}
