// Partitioned state-vector layout: the one place that decides how a 2^n
// state split over 2^d partitions maps qubits to index bits. Shared by the
// multi-GCD backend (src/hipsim/multi_gcd.h, hip:N) and the distributed
// backend (src/dist/simulator_dist.h, dist:N); each keeps only its own
// transport, sampling and deadline checks.
//
// This is the qubit-remapping scheme of qHiPSTER. Partition k holds the
// 2^(n-d) amplitudes whose top d *physical* index bits equal k; the low n-d
// physical bits ("local slots") are addressable inside one partition, the
// top d ("global slots") select the partition. A logical->physical qubit
// layout is kept; a gate touching a qubit in a global slot first swaps that
// slot with a local one (the backend moves the data, the layout records the
// permutation), so gates only ever run on local slots and data is never
// moved back.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <vector>

#include "src/base/bits.h"
#include "src/base/error.h"
#include "src/base/types.h"
#include "src/core/circuit.h"

namespace qhip::statespace {

// Index of element t of the half of a partition whose local bit `bit_pos`
// equals `bit_value` (0 or 1), counting t over the remaining bits in order.
// A slot swap ships exactly one such half to the partner partition.
constexpr index_t half_index(index_t t, unsigned bit_pos, unsigned bit_value) {
  const index_t bit = index_t{1} << bit_pos;
  return ((t >> bit_pos) << (bit_pos + 1)) | (t & (bit - 1)) |
         (bit_value ? bit : 0);
}

// Lookahead over a circuit's gate list for eviction: the index of the next
// gate that touches each qubit. Measurement gates read any layout, so they
// are not uses. Queries must come with non-decreasing `now`.
class NextUse {
 public:
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  explicit NextUse(const Circuit& c) : uses_(c.num_qubits), cursor_(c.num_qubits, 0) {
    for (std::uint32_t i = 0; i < c.gates.size(); ++i) {
      const Gate& g = c.gates[i];
      if (g.is_measurement()) continue;
      for (qubit_t q : g.qubits) uses_[q].push_back(i);
      for (qubit_t q : g.controls) uses_[q].push_back(i);
    }
  }

  // Moves the lookahead to gate `now`.
  void seek(std::uint32_t now) { now_ = now; }

  // Index of the first gate at or after `now` touching q; kNever when none.
  std::uint64_t operator()(qubit_t q) {
    std::size_t& cu = cursor_[q];
    const std::vector<std::uint32_t>& u = uses_[q];
    while (cu < u.size() && u[cu] < now_) ++cu;
    return cu < u.size() ? u[cu] : kNever;
  }

 private:
  std::vector<std::vector<std::uint32_t>> uses_;  // ascending gate indices
  std::vector<std::size_t> cursor_;
  std::uint32_t now_ = 0;
};

class PartitionLayout;

// How measuring `qubits` (outcome bit j = qubits[j]) splits over the
// partitions under the current layout: bits held in global slots are fixed
// per partition, bits held in local slots vary per amplitude.
class CollapsePlan {
 public:
  // Outcome bits partition `part` fixes through its global slots.
  index_t fixed_bits(unsigned part) const {
    index_t o = 0;
    for (const Bit& b : global_) o |= static_cast<index_t>((part >> b.pos) & 1) << b.j;
    return o;
  }
  // Outcome bits read from local amplitude index i (global bits left zero).
  index_t local_bits(index_t i) const {
    index_t o = 0;
    for (const Bit& b : local_) o |= ((i >> b.pos) & 1) << b.j;
    return o;
  }
  // Whether partition `part` keeps any amplitude under `outcome`.
  bool survives(unsigned part, index_t outcome) const {
    return (outcome & global_mask_) == fixed_bits(part);
  }
  // Local-slot mask, and the value under it, of the amplitudes `outcome` keeps
  // in a surviving partition.
  index_t local_mask() const { return local_mask_; }
  index_t local_value(index_t outcome) const {
    index_t v = 0;
    for (const Bit& b : local_) v |= ((outcome >> b.j) & 1) << b.pos;
    return v;
  }

 private:
  friend class PartitionLayout;
  struct Bit {
    unsigned j;    // outcome bit
    unsigned pos;  // local slot, or partition-index bit for a global slot
  };
  std::vector<Bit> local_, global_;
  index_t local_mask_ = 0;   // over local slots
  index_t global_mask_ = 0;  // over outcome bits
};

class PartitionLayout {
 public:
  // `num_qubits` split over `num_parts` partitions, a power of two.
  PartitionLayout(unsigned num_qubits, unsigned num_parts)
      : local_(local_count(num_qubits, num_parts)), layout_(num_qubits), slots_(num_qubits) {
    reset();
  }

  unsigned num_qubits() const { return static_cast<unsigned>(layout_.size()); }
  unsigned local_qubits() const { return local_; }
  unsigned num_parts() const { return 1u << (num_qubits() - local_); }

  // Back to the identity layout (slot s holds qubit s).
  void reset() {
    std::iota(layout_.begin(), layout_.end(), 0u);
    std::iota(slots_.begin(), slots_.end(), 0u);
  }

  qubit_t qubit_at(unsigned slot) const { return layout_[slot]; }

  unsigned slot_of(qubit_t q) const {
    check(q < num_qubits(), "PartitionLayout: logical qubit out of range");
    assert(layout_[slots_[q]] == q && "layout/slots maps diverged");
    return slots_[q];
  }

  // Records that the qubits in slots a and b traded places.
  void swap_slots(unsigned a, unsigned b) {
    std::swap(layout_[a], layout_[b]);
    slots_[layout_[a]] = a;
    slots_[layout_[b]] = b;
  }

  index_t physical_to_logical(index_t phys) const {
    index_t logical = 0;
    for (unsigned s = 0; s < layout_.size(); ++s) {
      if (phys & (index_t{1} << s)) logical |= index_t{1} << layout_[s];
    }
    return logical;
  }

  index_t logical_to_physical(index_t logical) const {
    index_t phys = 0;
    for (unsigned q = 0; q < slots_.size(); ++q) {
      if (logical & (index_t{1} << q)) phys |= index_t{1} << slots_[q];
    }
    return phys;
  }

  // The local slot to evict when a global qubit must come local; never one
  // holding a `pinned` qubit. With lookahead, the holder whose next use is
  // farthest away (Belady), ties going to the higher slot; without, the
  // highest free slot.
  unsigned eviction_slot(const std::vector<qubit_t>& pinned,
                         NextUse* lookahead) const {
    unsigned best = local_;
    std::uint64_t best_next = 0;
    for (unsigned s = local_; s-- > 0;) {
      const qubit_t holder = layout_[s];
      if (std::find(pinned.begin(), pinned.end(), holder) != pinned.end()) continue;
      const std::uint64_t nu = lookahead ? (*lookahead)(holder) : NextUse::kNever;
      if (best == local_ || nu > best_next) {
        best = s;
        best_next = nu;
        if (nu == NextUse::kNever) break;  // cannot do better
      }
    }
    check(best < local_, "PartitionLayout: no free local slot");
    return best;
  }

  // Brings every qubit of `qubits` into a local slot, in order, with all of
  // them pinned. Each swap is handed to `exchange(global_slot, local_slot)`
  // — the backend's transport — before the layout records it. Returns the
  // number of swaps.
  template <typename ExchangeFn>
  unsigned localize(const std::vector<qubit_t>& qubits, NextUse* lookahead,
                    ExchangeFn&& exchange) {
    unsigned swaps = 0;
    for (qubit_t q : qubits) {
      const unsigned gslot = slot_of(q);
      if (gslot < local_) continue;
      const unsigned lslot = eviction_slot(qubits, lookahead);
      exchange(gslot, lslot);
      swap_slots(gslot, lslot);
      ++swaps;
    }
    return swaps;
  }

  CollapsePlan collapse_plan(const std::vector<qubit_t>& qubits) const {
    CollapsePlan p;
    for (unsigned j = 0; j < qubits.size(); ++j) {
      const unsigned s = slot_of(qubits[j]);
      if (s < local_) {
        p.local_.push_back({j, s});
        p.local_mask_ |= index_t{1} << s;
      } else {
        p.global_.push_back({j, s - local_});
        p.global_mask_ |= index_t{1} << j;
      }
    }
    return p;
  }

 private:
  static unsigned local_count(unsigned num_qubits, unsigned num_parts) {
    check(is_pow2(num_parts), "PartitionLayout: partition count must be a power of two");
    const unsigned global = log2_exact(num_parts);
    check(global < num_qubits, "PartitionLayout: too few qubits to split");
    return num_qubits - global;
  }

  unsigned local_;
  std::vector<qubit_t> layout_;  // physical slot -> logical qubit
  std::vector<unsigned> slots_;  // logical qubit -> physical slot (inverse)
};

}  // namespace qhip::statespace
