#include "prof/profile.hpp"

#include <algorithm>
#include <numeric>

#include "common/check.hpp"

namespace tcfpn::prof {

const char* to_string(Term t) {
  switch (t) {
    case Term::kCompute: return "compute";
    case Term::kOperand: return "operand";
    case Term::kLocal: return "local";
    case Term::kBranch: return "branch";
    case Term::kFill: return "fill";
    case Term::kNet: return "net";
    case Term::kFault: return "fault";
    case Term::kIdle: return "idle";
    case Term::kSwitch: return "switch";
    case Term::kSched: return "sched";
  }
  return "?";
}

bool term_from_string(std::string_view name, Term* out) {
  for (std::size_t i = 0; i < kNumTerms; ++i) {
    const Term t = static_cast<Term>(i);
    if (name == to_string(t)) {
      *out = t;
      return true;
    }
  }
  return false;
}

const char* to_string(StepLimit l) {
  switch (l) {
    case StepLimit::kCompute: return "compute";
    case StepLimit::kNet: return "net";
    case StepLimit::kFault: return "fault";
    case StepLimit::kIdle: return "idle";
  }
  return "?";
}

StepLimit classify(const StepRecord& r) {
  const Cycle c1 = std::max(r.slot, r.net);
  if (r.net + r.fault > c1) return StepLimit::kFault;
  if (r.net > r.slot) return StepLimit::kNet;
  if (r.work < r.slot) return StepLimit::kIdle;
  return StepLimit::kCompute;
}

Cycle step_cost(const StepRecord& r) {
  return r.fill + std::max(r.slot, r.net + r.fault);
}

void StepTape::push_back(const StepRecord& r) {
  tail_.push_back(r);
  if (tail_.size() < kChunk) return;
  auto chunk = std::make_shared<Chunk>();
  std::copy(tail_.begin(), tail_.end(), chunk->begin());
  chunks_.push_back(std::move(chunk));
  tail_.clear();
}

bool StepTape::operator==(const StepTape& o) const {
  if (chunks_.size() != o.chunks_.size() || tail_ != o.tail_) return false;
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    if (chunks_[i] != o.chunks_[i] && *chunks_[i] != *o.chunks_[i]) {
      return false;
    }
  }
  return true;
}

Cycle Profile::add_over_bins(Cycle term,
                             const std::vector<std::pair<Key, Cycle>>& bins) {
  const Key idle{kNoIndex, kNoIndex, kNoIndex, Term::kIdle};
  Cycle work = 0;
  for (const auto& [k, w] : bins) work += w;
  if (work == 0) {
    add(idle, term);
  } else if (term >= work) {
    for (const auto& [k, w] : bins) add(k, w);
    add(idle, term - work);
  } else if (term > 0) {
    std::vector<Cycle> weights;
    weights.reserve(bins.size());
    for (const auto& [k, w] : bins) weights.push_back(w);
    const std::vector<Cycle> shares = apportion(term, weights);
    for (std::size_t i = 0; i < bins.size(); ++i) add(bins[i].first, shares[i]);
  }
  return work;
}

Cycle Profile::attributed() const {
  Cycle total = 0;
  for (const auto& [k, c] : cells) total += c;
  return total;
}

Cycle Profile::term_total(Term t) const {
  Cycle total = 0;
  for (const auto& [k, c] : cells) {
    if (k.term == t) total += c;
  }
  return total;
}

std::vector<Cycle> apportion(Cycle total, const std::vector<Cycle>& weights) {
  const std::size_t n = weights.size();
  std::vector<Cycle> shares(n, 0);
  unsigned __int128 sum = 0;
  for (Cycle w : weights) sum += w;
  TCFPN_CHECK(sum > 0, "apportion needs a positive weight sum");
  // Integer base shares floor(total * w / W); the leftover units (< the
  // number of bins with a nonzero remainder) go to the largest remainders.
  std::vector<unsigned __int128> rem(n, 0);
  Cycle distributed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned __int128 prod =
        static_cast<unsigned __int128>(total) * weights[i];
    shares[i] = static_cast<Cycle>(prod / sum);
    rem[i] = prod % sum;
    distributed += shares[i];
  }
  Cycle leftover = total - distributed;
  if (leftover > 0) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return rem[a] > rem[b];  // stable: ties keep low index
                     });
    for (std::size_t i = 0; i < n && leftover > 0; ++i) {
      if (rem[order[i]] == 0) break;  // exact shares need no top-up
      ++shares[order[i]];
      --leftover;
    }
    TCFPN_CHECK(leftover == 0, "apportion failed to distribute remainder");
  }
  return shares;
}

}  // namespace tcfpn::prof
