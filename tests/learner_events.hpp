// Test shorthands for one immediate STDP event on a weight column: a
// single-event OnlineLearner::apply_column, the learner's one update entry
// point.
#pragma once

#include <span>

#include "esam/learning/online_learner.hpp"

namespace esam::testutil {

inline void apply_event(learning::OnlineLearner& learner, std::size_t j,
                        const util::BitVec& pre, bool causal) {
  const learning::PendingUpdate event{pre, j, causal};
  const learning::PendingUpdate* ev = &event;
  learner.apply_column(j,
                       std::span<const learning::PendingUpdate* const>(&ev, 1));
}

/// Causal (potentiating) event on post-neuron `j`.
inline void reward(learning::OnlineLearner& learner, std::size_t j,
                   const util::BitVec& pre) {
  apply_event(learner, j, pre, /*causal=*/true);
}

/// Anti-causal (depressing) event on post-neuron `j`.
inline void punish(learning::OnlineLearner& learner, std::size_t j,
                   const util::BitVec& pre) {
  apply_event(learner, j, pre, /*causal=*/false);
}

}  // namespace esam::testutil
