// The partitioned-state layout core shared by hip:N and dist:N: the layout
// and its inverse, the index mappings, eviction with and without lookahead,
// the collapse plan and the half-index formula — plus the swap counts both
// backends make through it on fixed workloads.
#include "src/statespace/partition.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/core/gates.h"
#include "src/dist/simulator_dist.h"
#include "src/fusion/fuser.h"
#include "src/hipsim/multi_gcd.h"
#include "src/io/circuit_io.h"
#include "src/rqc/rqc.h"

namespace qhip::statespace {
namespace {

void random_swaps(PartitionLayout& layout, unsigned count, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const unsigned n = layout.num_qubits();
  for (unsigned k = 0; k < count; ++k) {
    layout.swap_slots(static_cast<unsigned>(rng() % n), static_cast<unsigned>(rng() % n));
  }
}

TEST(Partition, InverseMapStaysConsistentOverRandomSwaps) {
  PartitionLayout layout(10, 8);
  EXPECT_EQ(layout.local_qubits(), 7u);
  EXPECT_EQ(layout.num_parts(), 8u);
  Xoshiro256 rng(3);
  for (unsigned step = 0; step < 500; ++step) {
    layout.swap_slots(static_cast<unsigned>(rng() % 10), static_cast<unsigned>(rng() % 10));
    std::vector<bool> seen(10, false);
    for (unsigned s = 0; s < 10; ++s) {
      const qubit_t q = layout.qubit_at(s);
      ASSERT_LT(q, 10u);
      EXPECT_FALSE(seen[q]) << "qubit " << q << " in two slots";
      seen[q] = true;
      EXPECT_EQ(layout.slot_of(q), s);
    }
  }
  layout.reset();
  for (unsigned s = 0; s < 10; ++s) EXPECT_EQ(layout.slot_of(s), s);
  EXPECT_THROW(layout.slot_of(10), Error);
  EXPECT_THROW(PartitionLayout(3, 8), Error);  // no local qubit left
  EXPECT_THROW(PartitionLayout(8, 3), Error);  // not a power of two
}

TEST(Partition, IndexMappingsRoundTrip) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    PartitionLayout layout(9, 4);
    random_swaps(layout, 40, seed);
    for (unsigned s = 0; s < 9; ++s) {
      EXPECT_EQ(layout.physical_to_logical(index_t{1} << s), index_t{1} << layout.qubit_at(s));
    }
    for (index_t i = 0; i < pow2(9); ++i) {
      EXPECT_EQ(layout.logical_to_physical(layout.physical_to_logical(i)), i);
      EXPECT_EQ(layout.physical_to_logical(layout.logical_to_physical(i)), i);
    }
  }
}

// Without lookahead the highest local slot not holding a pinned qubit is
// evicted, which keeps hip:N's gate targets away from the low slots.
TEST(Partition, EvictionWithoutLookaheadPicksHighestFreeSlot) {
  PartitionLayout layout(6, 4);  // local slots 0..3
  EXPECT_EQ(layout.eviction_slot({}, nullptr), 3u);
  EXPECT_EQ(layout.eviction_slot({5, 3}, nullptr), 2u);
  EXPECT_EQ(layout.eviction_slot({3, 2, 1}, nullptr), 0u);
  EXPECT_THROW(layout.eviction_slot({0, 1, 2, 3}, nullptr), Error);
}

// With lookahead the local qubit needed farthest in the future is evicted
// (Belady); qubits never used again tie, and the higher slot wins.
TEST(Partition, EvictionWithLookaheadPicksFarthestNextUse) {
  Circuit c;
  c.num_qubits = 4;  // 1 global qubit: local slots 0..2
  c.gates.push_back(gates::h(0, 3));
  c.gates.push_back(gates::h(1, 2));
  c.gates.push_back(gates::measure(2, {1}));  // measurements are not uses
  c.gates.push_back(gates::h(3, 0));
  c.gates.push_back(gates::h(4, 1));
  PartitionLayout layout(4, 2);
  NextUse la(c);
  la.seek(0);
  EXPECT_EQ(la(2), 1u);
  EXPECT_EQ(la(0), 3u);
  EXPECT_EQ(la(1), 4u);
  EXPECT_EQ(layout.eviction_slot({3}, &la), 1u);    // q1, next used at gate 4
  EXPECT_EQ(layout.eviction_slot({3}, nullptr), 2u);
  la.seek(4);
  EXPECT_EQ(la(0), NextUse::kNever);
  EXPECT_EQ(la(2), NextUse::kNever);
  EXPECT_EQ(layout.eviction_slot({3, 1}, &la), 2u);  // q0, q2 tie: higher slot

  // localize() hands each swap to the transport before recording it.
  NextUse fresh(c);
  std::vector<std::pair<unsigned, unsigned>> swaps;
  const unsigned n = layout.localize({3, 2}, &fresh, [&](unsigned g, unsigned l) {
    swaps.emplace_back(g, l);
  });
  EXPECT_EQ(n, 1u);
  ASSERT_EQ(swaps.size(), 1u);
  EXPECT_EQ(swaps[0], std::make_pair(3u, 1u));
  EXPECT_EQ(layout.slot_of(3), 1u);
  EXPECT_EQ(layout.slot_of(1), 3u);
  EXPECT_EQ(layout.localize({3, 2}, &fresh, [](unsigned, unsigned) { FAIL(); }), 0u);
}

// Checks the plan against the definition: amplitude (part, i) survives an
// outcome iff the logical index it holds has those bits at `qubits`.
void expect_plan_matches_definition(const PartitionLayout& layout,
                                    const std::vector<qubit_t>& qubits) {
  const CollapsePlan plan = layout.collapse_plan(qubits);
  const unsigned local = layout.local_qubits();
  for (unsigned k = 0; k < layout.num_parts(); ++k) {
    for (index_t i = 0; i < pow2(local); ++i) {
      const index_t logical = layout.physical_to_logical((index_t{k} << local) | i);
      const index_t truth = gather_bits(logical, qubits);
      EXPECT_EQ(plan.fixed_bits(k) | plan.local_bits(i), truth);
      for (index_t o = 0; o < pow2(static_cast<unsigned>(qubits.size())); ++o) {
        const bool kept = plan.survives(k, o) && (i & plan.local_mask()) == plan.local_value(o);
        EXPECT_EQ(kept, truth == o) << "part " << k << " index " << i << " outcome " << o;
      }
    }
  }
}

TEST(Partition, CollapsePlanLocalOnly) {
  PartitionLayout layout(4, 4);  // local slots 0, 1
  const CollapsePlan plan = layout.collapse_plan({1, 0});
  EXPECT_EQ(plan.local_mask(), 0b11u);
  EXPECT_EQ(plan.local_value(0b01), 0b10u);  // outcome bit 0 is qubit 1
  for (unsigned k = 0; k < 4; ++k) {
    EXPECT_EQ(plan.fixed_bits(k), 0u);
    EXPECT_TRUE(plan.survives(k, 0b10));
  }
  expect_plan_matches_definition(layout, {1, 0});
}

TEST(Partition, CollapsePlanGlobalOnly) {
  PartitionLayout layout(4, 4);  // qubit 3 selects partition bit 1
  const CollapsePlan plan = layout.collapse_plan({3});
  EXPECT_EQ(plan.local_mask(), 0u);
  EXPECT_EQ(plan.local_value(1), 0u);
  EXPECT_FALSE(plan.survives(0, 1));
  EXPECT_FALSE(plan.survives(1, 1));
  EXPECT_TRUE(plan.survives(2, 1));
  EXPECT_TRUE(plan.survives(3, 1));
  EXPECT_TRUE(plan.survives(1, 0));
  expect_plan_matches_definition(layout, {3});
}

TEST(Partition, CollapsePlanMixed) {
  PartitionLayout layout(4, 4);
  layout.swap_slots(0, 2);  // qubit 0 -> global (partition bit 0), qubit 2 -> slot 0
  const CollapsePlan plan = layout.collapse_plan({0, 2, 3});
  EXPECT_EQ(plan.local_mask(), 0b01u);
  for (unsigned k = 0; k < 4; ++k) EXPECT_EQ(plan.survives(k, 0b101), k == 3);
  EXPECT_EQ(plan.local_value(0b101), 0u);
  for (unsigned k = 0; k < 4; ++k) EXPECT_EQ(plan.survives(k, 0b010), k == 0);
  EXPECT_EQ(plan.local_value(0b010), 0b01u);
  expect_plan_matches_definition(layout, {0, 2, 3});

  PartitionLayout wide(7, 8);
  random_swaps(wide, 20, 9);
  expect_plan_matches_definition(wide, {6, 1, 4, 0});
}

// half_index enumerates, in increasing order, exactly the indices whose bit
// `bit_pos` equals `bit_value`.
TEST(Partition, HalfIndexEnumeratesOneHalf) {
  for (unsigned l = 0; l < 5; ++l) {
    for (unsigned v = 0; v < 2; ++v) {
      std::vector<index_t> want;
      for (index_t i = 0; i < 32; ++i) {
        if (((i >> l) & 1) == v) want.push_back(i);
      }
      for (index_t t = 0; t < 16; ++t) EXPECT_EQ(half_index(t, l, v), want[t]) << l << v << t;
    }
  }
}

// Swap counts of both backends on fixed workloads (max_fused = 4, the
// paper's optimum), pinned so a change to eviction shows up here.
TEST(Partition, PinnedSwapCountsMultiGcd) {
  rqc::RqcOptions opt;
  opt.rows = 2;
  opt.cols = 7;
  opt.depth = 14;
  opt.seed = 5;
  const Circuit fused = fuse_circuit(rqc::generate_rqc(opt), {4}).circuit;
  hipsim::MultiGcdSimulator<float> sim(fused.num_qubits, 2);
  sim.run(fused);
  sim.synchronize();
  EXPECT_EQ(sim.stats().slot_swaps, 15u);
  EXPECT_EQ(sim.stats().peer_bytes, 983040u);
}

TEST(Partition, PinnedSwapCountsDist) {
  const Circuit fused =
      fuse_circuit(read_circuit_file(std::string(QHIP_CIRCUITS_DIR) + "/circuit_q20"), {4})
          .circuit;
  dist::run_spmd(2, [&](dist::Comm& comm) {
    ThreadPool pool(1);
    dist::SimulatorDist<float> sim(comm, fused.num_qubits, pool);
    sim.run(fused);
    EXPECT_EQ(sim.stats().slot_swaps, 8u);
    EXPECT_EQ(sim.stats().bytes_sent, 16777216u);  // per rank
    EXPECT_EQ(sim.stats().swap_chunks, 128u);
  });
}

}  // namespace
}  // namespace qhip::statespace
