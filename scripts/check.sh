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

# The first CHANGES entry number held to the size limit; the older entries
# wait for their cut (ROADMAP item 9).
first_sized=48
echo "==> CHANGES.md entries numbered $first_sized and up: at most 12 lines, none over 100 characters"
# An entry runs from its "- PR <n>" line to the next line that starts with
# "- " or "#". Continuation bytes are dropped before counting, so a line is
# measured in UTF-8 characters whatever awk the host has.
LC_ALL=C awk -v first="$first_sized" '
    /^- |^#/ {
        entry = 0
        if (match($0, /^- PR [0-9]+/) && substr($0, 6, RLENGTH - 5) + 0 >= first) {
            entry = NR; head = substr($0, 1, RLENGTH); lines = 0
        }
    }
    entry {
        s = $0; gsub(/[\200-\277]/, "", s)
        if (length(s) > 100) { printf "CHANGES.md:%d: %d characters, at most 100\n", NR, length(s); bad = 1 }
        if (++lines == 13) { printf "CHANGES.md:%d: the %s entry runs past 12 lines\n", entry, head; bad = 1 }
    }
    END { exit bad }
' CHANGES.md >&2

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

echo "==> knob budget (exported Config/Options structs and fields under internal/)"
go test -run TestKnobBudget -count=1 .

echo "==> alloc gate (publish->deliver budget, untraced and with every publication traced: the hop lists are carved from lane 0)"
go test -run 'TestPublishDeliverAllocBudget|TestTracedPublishDeliverAllocBudget' -count=1 .

echo "==> alloc gate (publish->deliver budget with the history tier sampling)"
go test -run TestPublishDeliverHistoryAllocBudget -count=1 .

echo "==> alloc gate (guaranteed publish budget; one in 10 traced reads the untraced count within 0.1: stage hops only for a sampled publication)"
go test -run 'TestGuaranteedPublishAllocBudget' -count=1 .

echo "==> alloc gate (one host, four applications, one publication: one decode, no slot allocation, no clone)"
go test -run TestHostFanoutDecodeAllocBudget -count=1 .

echo "==> a delivered object is frozen (Set/SetAt fail with ErrFrozen, Clone edits; shared by every bus, or a frozen copy each with a []byte or List part)"
go test -run TestDeliveredObjectIsFrozen -count=1 ./internal/core/

echo "==> alloc gate (an 8 KB Story, publish -> remote receive: one payload-sized allocation, the medium's)"
go test -run TestStoryPayloadBytesBudget -count=1 .

echo "==> alloc gate (router forward, mesh agent running: 0 allocs/op for plain, guaranteed, traced, transformed, _sys)"
go test -run TestRouterForwardAllocBudget -count=1 ./internal/router/

echo "==> alloc gate (subscription change + advertisement: same small constant at 100 and at 10000 subscriptions; a loop pass with only the ack tick due: 0)"
go test -run 'TestAdvertiseInterestAllocBudget|TestAckTickAllocatesNothing' -count=1 ./internal/daemon/

echo "==> the daemon's interest and acknowledgement policies and the rmi election on virtual time (ticked directly: no loop, no segment, no sleep)"
go test -run 'TestInterestOnVirtualTime|TestAcksOnVirtualTime' -count=1 ./internal/daemon/
go test -run 'TestElectionPartitionHeal|TestElectionLeaderExpiry' -count=1 ./internal/rmi/

echo "==> the join on virtual time (sequence 1 starts a stream at once, a mid-stream joiner waits the grace, every fate of a first burst, sequence 0 refused)"
go test -run 'TestFirstMessageStartsTheStream|TestJoinArrivalOrders|TestMidStreamJoinWaitsTheGrace|TestFirstPublicationWithinOneTransit|TestSequenceZeroRejected|TestExhaustiveFates' -count=1 ./internal/reliable/

echo "==> alloc gate (a subject parses with 0 allocations; a match-cache miss answered by one node's set 0, a true union 1; ParseBytes 0 on a hit, 1 on a miss)"
go test -run 'TestParseAllocatesNothing|TestMatchMissAllocs|TestInternerParseBytes' -count=1 ./internal/subject/

echo "==> interest-aggregate gate (Trie.Aggregate == AggregatePatterns(Trie.Patterns()); aggregation only widens)"
go test -run 'TestTrieAggregateEqualsAggregatePatterns|TestAggregateWidens|TestAggregateKeepsOneElementSubjects' -count=1 ./internal/subject/

echo "==> ledger gate (8 Sync publishers average well under one fsync/message, and 8 publishers on a ledger with a commit hook under one hook call/message; a stuck message leaves at most 3 segments; a failed commit leaves no trace; Append+Ack allocates nothing; a reused batch reports each outcome to its own waiters; a commit's leader commits only its own batch; pending messages, appended or reopened, pin no payload; a payload reads back byte for byte after commit, carry and reopen, a damaged record not at all)"
go test -run 'TestGroupCommitFsyncBudget|TestGroupCommitHookBudget|TestStuckMessageCarried|TestFailedAppendLeavesNoTrace|TestFailedAppendBatchLeavesNoTrace|TestAppendSteadyStateAllocs|TestBatchOutcomeStaysWithItsWaiters|TestLeaderLeadsOnlyItsOwnBatch|TestPendingPinsNoPayload|TestPayloadReadBack' -count=1 ./internal/ledger/

echo "==> wire-bytes gate (steady-state dictionary compression >= 40%; both formats byte-golden; the wire corpus, every reliable frame type and busproto kind of the last 64-bit-epoch build and of this one, decodes and reaches an application; a default host's per-frame overhead, origin field and one-id ack within their byte budgets)"
go test -run 'TestCompactGoldenBytes|TestLegacyGoldenBytes' -count=1 ./internal/wire/
go test -run 'TestCorpusDecodes' -count=1 ./internal/reliable/ ./internal/busproto/
go test -run 'TestCorpusReachesTheApplication|TestFrameOverheadBudget' -count=1 ./internal/core/

echo "==> alloc gate (steady-state encode 0 allocs; warm decode: one block per object, no box for any value; 0 for any table, definitions or not)"
go test -run 'TestSendDictSteadyStateAllocs|TestUnmarshalSteadyStateAllocs' -count=1 ./internal/wire/

echo "==> alloc gate (decoded strings share a block; a decode's counts preallocate O(payload))"
go test -run 'TestDecodedStringsShareABlock|TestCountsPreallocateInProportionToPayload' -count=1 ./internal/wire/

echo "==> alloc gate (a decoded int, float, time or short string costs no box: it is carved from the decode's block; a []byte or List attribute sits in its object's header cell, a list of scalars in an element chunk; each behaves as a value Go boxed)"
go test -run 'TestCarvedBoxIsAnOrdinaryValue/(kinds|allocs)' -count=1 ./internal/wire/

echo "==> alloc gate (a SysStats built from its one declaration: one block per object, 586 in all)"
go test -run TestStatsObjectAllocBudget -count=1 ./internal/telemetry/

echo "==> alloc gate (a data object is one allocation up to 16 slots: New, NewFrozen with its header cells, Clone and a bound kind's Object; a frozen copy for a second bus boxes no []byte or List)"
go test -run 'TestObjectIsOneAllocation|TestShareValueCopyAllocs' -count=1 ./internal/mop/

echo "==> _sys gates (host and router answer every probe alike; published bytes golden against e4d15fb, router stats + the six mesh.* names)"
go test -run 'TestSysProbeParity|TestSysGoldenBytes' -count=1 ./internal/router/

echo "==> quorum-liveness gate (replicated guaranteed delivery reaches quorum)"
go test -run TestQuorumLiveness -count=1 ./internal/qledger/

echo "==> the quorum tier on the host's one loop (no goroutine or daemon client of its own), and its recovery, backoff, retirement, heard-origin bound and frame order on virtual time"
go test -run 'TestNoLoopOfItsOwn|TestRecoveryOnVirtualTime|TestFosteredEntriesBackOff|TestCoordinatorRetiresMidReplay|TestReplayAndRetireInEitherOrder|TestHeardOriginsBounded|TestReleaseHeardAfterBatches' -count=1 ./internal/qledger/

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

    echo "==> a lane's worker recording and draining acknowledgements while the loop's tick sends the same sets (race build, 5 runs)"
    go test -race -count=5 -run TestAckTickRacesWorker ./internal/daemon/

    echo "==> trie match cache under race, 5 runs (sharded, lazily invalidated: serves, cap skips, shards independent, never older than an observed mutation; a held answer survives Remove/Add on its node)"
    go test -race -count=5 -run 'TestMatchCache|TestTrieMatchCache|TestMatchResultSurvivesRemove' ./internal/subject/

    echo "==> the conn driver: one goroutine, timers and order under a stalled consumer, close and flush, the wall-clock smoke (race build, 10 runs; the protocol suite is single-threaded on virtual time and runs once, above)"
    go test -race -run 'TestOneGoroutinePerConn|TestTimersRunUnderStalledConsumer|TestClosedConnErrors|TestCloseFlushesBatch|TestConnEndToEnd' -count=10 ./internal/reliable/
    go test -race -run 'TestWallClockDelivery|TestConcurrentSenders|TestSendBound|TestOneGoroutinePerNetwork|TestCloseIdempotentAndRejectsSends' -count=10 ./internal/netsim/

    echo "==> per-sender order as a property, exactly-once, no starved column and a settled close across lanes, lossy churn, one housekeeping loop per node and the _sys bytes it publishes, one decode per host and a frozen value for every application (race build, 5 runs)"
    go test -race -count=5 -run 'TestCrossLaneSenderFIFO|TestCrossLaneLocalFIFO|TestSingleLaneGoldenEquivalence|TestGuaranteedExactlyOnceAcrossLanes|TestLaneWiring|TestCloseDrainsWorkers|TestPerSenderFIFOProperty|TestPopNoStarvation|TestClientCloseSettlesBacklog|TestLaneDepthsCoherent|TestSlotConcurrentTakers' ./internal/daemon/
    go test -race -count=5 -run 'TestStressLossyChurn|TestOneLoopPerHost|TestStalledSubscriberDoesNotStopTheLoop|TestDeliveredObjectIsFrozen|TestClassNakThroughTheSlot' ./internal/core/
    go test -race -count=5 -run 'TestOneLoopPerRouter|TestSysGoldenBytes' ./internal/router/

    echo "==> slots and hop lists carved from lane 0's chunks by local publishers and its inbound work at once, turns given back exactly, and no two deliveries' pop hops in one array (race build, 5 runs)"
    go test -race -count=5 -run 'TestSlotCarveConcurrent|TestSlotTurnsGivenBack|TestTracedFanoutOwnsItsHops' ./internal/daemon/

    echo "==> the ledger's reused batches, the hand-off of a commit's lead, concurrent walks and payloads read back from the log (race build, 5 runs)"
    go test -race -count=5 -run 'TestConcurrentAppendAck|TestGroupCommitFsyncBudget|TestForEachPendingConcurrent|TestBatchOutcomeStaysWithItsWaiters|TestLeaderLeadsOnlyItsOwnBatch|TestPendingPinsNoPayload|TestPayloadReadBack' ./internal/ledger/

    echo "==> crash recovery through the host's one retrier: exactly-once after a publisher crash, and a fostered entry nobody acknowledges backs off (race build, 3 runs)"
    go test -race -count=3 -run 'TestCrashRecoveryExactlyOnce|TestFosteredEntriesBackOff' ./internal/qledger/

    echo "==> delivered []byte are views of a payload nobody else holds: per-host datagrams, capped views, lent local publications (race build, 20 runs)"
    go test -race -count=20 -run 'TestDeliveredBytesArePrivateToTheirHost|TestAppendToAViewLeavesTheNextMessageAlone|TestRetransmissionIgnoresLocalScribbles' ./internal/core/

    echo "==> decoded strings from shared blocks, 8 goroutines decoding and checking at once (race build, 10 runs)"
    go test -race -count=10 -run 'TestDecodedStringsShareABlock/concurrent' ./internal/wire/

    echo "==> carved values, and a Story's body and keywords kept through its header cells, survive collections with checkptr on, and pin their chunk, never a datagram or a second string block (race build, 10 runs)"
    go test -race -count=10 -run 'TestCarvedBoxIsAnOrdinaryValue/gc' ./internal/wire/
    go test -race -count=10 -run 'TestCarvedValueRetention' ./internal/wire/

    echo "==> fuzz smoke (5s each; the two wire unmarshal fuzzers are differential, memoised vs cold, and check every decoded []byte is a capped view of the input and no decoded scalar, time or string shares a byte with it or with a later decode through the same block)"
    go test -run xxx -fuzz 'FuzzUnmarshal$'        -fuzztime 5s ./internal/wire/
    go test -run xxx -fuzz 'FuzzUnmarshalCompact$' -fuzztime 5s ./internal/wire/
    go test -run xxx -fuzz 'FuzzDecode$'           -fuzztime 5s ./internal/busproto/
    go test -run xxx -fuzz 'FuzzEnvelopePeek$'     -fuzztime 5s ./internal/busproto/
    go test -run xxx -fuzz 'FuzzAppendForward$'    -fuzztime 5s ./internal/busproto/
    go test -run xxx -fuzz 'FuzzParsePattern$'     -fuzztime 5s ./internal/subject/
    go test -run xxx -fuzz 'FuzzAggregateWidens$'  -fuzztime 5s ./internal/subject/
    go test -run xxx -fuzz 'FuzzParse$'            -fuzztime 5s ./internal/subject/
    go test -run xxx -fuzz 'FuzzTrieMatch$'        -fuzztime 5s ./internal/subject/
    go test -run xxx -fuzz 'FuzzParseRecord$'      -fuzztime 5s ./internal/ledger/
    go test -run xxx -fuzz 'FuzzSegmentedReplay$'  -fuzztime 5s ./internal/ledger/
    go test -run xxx -fuzz 'FuzzReplFrame$'        -fuzztime 5s ./internal/qledger/
    go test -run xxx -fuzz 'FuzzMeshAd$'           -fuzztime 5s ./internal/mesh/
    go test -run xxx -fuzz 'FuzzSysRead$'          -fuzztime 5s ./cmd/ibmon/
    go test -run xxx -fuzz 'FuzzDecodeFrame$'      -fuzztime 5s ./internal/reliable/
    go test -run xxx -fuzz 'FuzzRead$'             -fuzztime 5s ./internal/tdl/
fi

echo "==> all checks passed"
