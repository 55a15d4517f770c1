#!/bin/sh
# check.sh — the full pre-merge gate for this repo.
#
#   scripts/check.sh          # build, vet, tests, race suite, fuzz smoke
#   scripts/check.sh -q       # skip the race suite and fuzz smoke (quick)
#
# The race suite must stay clean (see CLAUDE.md) and every network-facing
# codec keeps a fuzzer; the 5 s smoke here catches regressions in the
# parse-depth/length guards without the cost of a long fuzz run.

set -eu
cd "$(dirname "$0")/.."

quick=0
[ "${1:-}" = "-q" ] && quick=1

echo "==> gofmt -l (the walk covers the root and the nested benchmark module)"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "not gofmt-clean:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> one interest protocol (the relay, its option and the discovery bootstrap stay deleted)"
if grep -rnE 'RelayInterval|interestRelayLoop|AnnounceOn|attPubSub' --include='*.go' --exclude='*_test.go' . ; then
    echo "the pairwise relay or the mesh discovery bootstrap is back in non-test Go" >&2
    exit 1
fi

echo "==> one measuring stick (the retired figures' harness, the stream codec and the second match cache stay deleted)"
if grep -rnwE 'MatchCache|NewMatchCache|MatchUncached|MeasureDictCompression|MeasureGroupCommit|MeasureRouterForward|pipeSegment' \
        --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark . ; then
    echo "a retired measurement harness or the external match cache is back in non-test Go" >&2
    exit 1
fi
if [ -e internal/wire/stream.go ]; then
    echo "internal/wire/stream.go is back: the stream codec had no production reader or writer" >&2
    exit 1
fi

echo "==> one shard key (a lane is a sender shard: the subject-keyed lanes, the arrival tickets and the strict merged pop stay deleted)"
if grep -rnwE 'popNext|LaneIndex' --include='*.go' --exclude='*_test.go' --exclude-dir=subject --exclude-dir=benchmark . ||
        grep -nwE 'ticket|tick:' internal/daemon/daemon.go internal/daemon/lanes.go ; then
    echo "client queues or per-lane state are keyed by subject again, or an arrival ticket repairs their order, in non-test Go" >&2
    exit 1
fi

echo "==> one interest table (a router link keeps host and router interest alike: the per-attachment host table, the second trie, the MeshInterest format and its refresh option stay deleted)"
if grep -rnwE 'recordInterest|livePatterns|HostInterestChanged|WantsRemote|MarshalInterest|ParseInterestObject|InterestRefresh' \
        --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark . ; then
    echo "a second interest table, probe or wire format is back in non-test Go" >&2
    exit 1
fi

echo "==> nested benchmark module builds and vets (root ./... does not see it)"
go -C benchmark vet .
go -C benchmark build -o /dev/null .

echo "==> go test ./..."
go test ./...

echo "==> alloc gate (publish->deliver budget)"
go test -run TestPublishDeliverAllocBudget -count=1 .

echo "==> alloc gate (publish->deliver budget with the history tier sampling)"
go test -run TestPublishDeliverHistoryAllocBudget -count=1 .

echo "==> alloc gate (guaranteed publish budget)"
go test -run TestGuaranteedPublishAllocBudget -count=1 .

echo "==> alloc gate (one host, four applications, one publication: one decode, one slot, a clone each)"
go test -run TestHostFanoutDecodeAllocBudget -count=1 .

echo "==> alloc gate (router forward, mesh agent running: 0 allocs/op for plain, guaranteed, traced, transformed, _sys)"
go test -run TestRouterForwardAllocBudget -count=1 ./internal/router/

echo "==> alloc gate (subscription change + advertisement: same small constant at 100 and at 10000 subscriptions)"
go test -run TestAdvertiseInterestAllocBudget -count=1 ./internal/daemon/

echo "==> interest-aggregate gate (Trie.Aggregate == AggregatePatterns(Trie.Patterns()); aggregation only widens)"
go test -run 'TestTrieAggregateEqualsAggregatePatterns|TestAggregateWidens|TestAggregateKeepsOneElementSubjects' -count=1 ./internal/subject/

echo "==> fsync gate (8 Sync publishers average well under one fsync/message)"
go test -run TestGroupCommitFsyncBudget -count=1 ./internal/ledger/

echo "==> wire-bytes gate (steady-state dictionary compression >= 40%; both formats byte-golden)"
go test -run 'TestCompactGoldenBytes|TestLegacyGoldenBytes' -count=1 ./internal/wire/

echo "==> alloc gate (steady-state encode 0 allocs; warm decode allocates what it returns, 0 for the table)"
go test -run 'TestSendDictSteadyStateAllocs|TestUnmarshalSteadyStateAllocs' -count=1 ./internal/wire/

echo "==> alloc gate (a SysStats built from its one declaration costs no more than the hand-written builder did)"
go test -run TestStatsObjectAllocBudget -count=1 ./internal/telemetry/

echo "==> _sys gates (host and router answer every probe alike; published bytes golden against e4d15fb, router stats + the six mesh.* names)"
go test -run 'TestSysProbeParity|TestSysGoldenBytes' -count=1 ./internal/router/

echo "==> quorum-liveness gate (replicated guaranteed delivery reaches quorum)"
go test -run TestQuorumLiveness -count=1 ./internal/qledger/

echo "==> lane-scaling gate (sharded delivery >= 3x at 8 cores; skips below 4 cores)"
go test -run TestLaneScalingGate -count=1 -v ./internal/bench/

echo "==> mesh-locality gate (50-segment ring: mesh confines flow to <= 4 segments)"
go test -run TestMeshLocalityGate -count=1 -v ./internal/bench/

if [ "$quick" -eq 0 ]; then
    echo "==> go test -race ./..."
    go test -race ./...

    echo "==> mesh e2e under race, 5 runs (every router runs this code: heal, router death, flap, cache invalidation, join, line, same-name, parallel pair, same-name loop bounded by the hop budget, unsubscribe stops forwarding at the next ad)"
    go test -race -count=5 -run 'TestMeshPartitionHeal|TestMeshGuaranteedSurvivesRouterDeath|TestMeshFlapAlarm|TestMeshWantsCacheInvalidatedOnTopologyChange|TestMeshJoinNeedsNoDiscovery|TestMeshThreeRouterLine|TestSameNameRoutersDetected|TestParallelRoutersElectOneForwarder|TestSameNameParallelRoutersBoundedByHopBudget|TestUnsubscribeStopsForwardingAtNextAd|TestInterestCapCountedAndRecorded' ./internal/router/
    echo "==> the one interest table on virtual time under race, 5 runs (replace, refresh, lapse, two senders, split horizon, caps, the empty ad)"
    go test -race -count=5 -run 'TestJoinConvergesWithinFourTicks|TestSameIDCounted|TestInterestSwapKeepsCommonPatterns|TestRefreshLeavesTrieAlone|TestInterestLapsesAtTTL|TestTwoSendersOnePattern|TestHostInterestSplitHorizonAndBlockedSource|TestInterestTableCaps|TestEmptyAdSaidOnce' ./internal/mesh/
    go test -race -count=5 -run TestLastUnsubscribeAdvertisesEmptySet ./internal/daemon/

    echo "==> trie match cache under race, 5 runs (sharded, lazily invalidated: serves, cap skips, shards independent, never older than an observed mutation)"
    go test -race -count=5 -run 'TestMatchCache|TestTrieMatchCache' ./internal/subject/

    echo "==> the conn driver: one goroutine, timers and order under a stalled consumer, close and flush, the wall-clock smoke (race build, 10 runs; the protocol suite is single-threaded on virtual time and runs once, above)"
    go test -race -run 'TestOneGoroutinePerConn|TestTimersRunUnderStalledConsumer|TestClosedConnErrors|TestCloseFlushesBatch|TestConnEndToEnd' -count=10 ./internal/reliable/
    go test -race -run 'TestWallClockDelivery|TestConcurrentSenders|TestSendBound|TestOneGoroutinePerNetwork|TestCloseIdempotentAndRejectsSends' -count=10 ./internal/netsim/

    echo "==> per-sender order as a property, exactly-once, no starved column and a settled close across lanes, lossy churn, one housekeeping loop per node and the _sys bytes it publishes, one decode per host and a private value per application (race build, 5 runs)"
    go test -race -count=5 -run 'TestCrossLaneSenderFIFO|TestCrossLaneLocalFIFO|TestSingleLaneGoldenEquivalence|TestGuaranteedExactlyOnceAcrossLanes|TestLaneWiring|TestCloseDrainsWorkers|TestPerSenderFIFOProperty|TestPopNoStarvation|TestClientCloseSettlesBacklog|TestLaneDepthsCoherent|TestSlotConcurrentTakers' ./internal/daemon/
    go test -race -count=5 -run 'TestStressLossyChurn|TestOneLoopPerHost|TestStalledSubscriberDoesNotStopTheLoop|TestEventValueIsPrivateToItsBus|TestClassNakThroughTheSlot' ./internal/core/
    go test -race -count=5 -run 'TestOneLoopPerRouter|TestSysGoldenBytes' ./internal/router/

    echo "==> fuzz smoke (5s each; the two wire unmarshal fuzzers are differential: memoised vs cold)"
    go test -run xxx -fuzz 'FuzzUnmarshal$'        -fuzztime 5s ./internal/wire/
    go test -run xxx -fuzz 'FuzzUnmarshalCompact$' -fuzztime 5s ./internal/wire/
    go test -run xxx -fuzz 'FuzzDecode$'           -fuzztime 5s ./internal/busproto/
    go test -run xxx -fuzz 'FuzzEnvelopePeek$'     -fuzztime 5s ./internal/busproto/
    go test -run xxx -fuzz 'FuzzAppendForward$'    -fuzztime 5s ./internal/busproto/
    go test -run xxx -fuzz 'FuzzParsePattern$'     -fuzztime 5s ./internal/subject/
    go test -run xxx -fuzz 'FuzzAggregateWidens$'  -fuzztime 5s ./internal/subject/
    go test -run xxx -fuzz 'FuzzParseRecord$'      -fuzztime 5s ./internal/ledger/
    go test -run xxx -fuzz 'FuzzSegmentedReplay$'  -fuzztime 5s ./internal/ledger/
    go test -run xxx -fuzz 'FuzzReplFrame$'        -fuzztime 5s ./internal/qledger/
    go test -run xxx -fuzz 'FuzzMeshAd$'           -fuzztime 5s ./internal/mesh/
    go test -run xxx -fuzz 'FuzzSysRead$'          -fuzztime 5s ./cmd/ibmon/
    go test -run xxx -fuzz 'FuzzDecodeFrame$'      -fuzztime 5s ./internal/reliable/
    go test -run xxx -fuzz 'FuzzRead$'             -fuzztime 5s ./internal/tdl/
fi

echo "==> all checks passed"
