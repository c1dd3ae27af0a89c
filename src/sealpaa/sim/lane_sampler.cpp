#include "sealpaa/sim/lane_sampler.hpp"

#include <cmath>

namespace sealpaa::sim {

std::uint64_t bernoulli_threshold(double p) noexcept {
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

LaneSampler::LaneSampler(const multibit::InputProfile& profile)
    : slots_(2 * profile.width() + 1) {
  for (std::size_t i = 0; i < profile.width(); ++i) {
    slots_[2 * i].threshold = bernoulli_threshold(profile.p_a(i));
    slots_[2 * i + 1].threshold = bernoulli_threshold(profile.p_b(i));
  }
  slots_.back().threshold = bernoulli_threshold(profile.p_cin());
}

std::uint64_t LaneSampler::draw(prob::Xoshiro256StarStar& rng,
                                std::uint64_t count, std::uint64_t* a_words,
                                std::uint64_t* b_words) {
  // A local generator copy keeps the state in registers: the slot words
  // written in the loop cannot alias it.
  prob::Xoshiro256StarStar local = rng;
  for (std::uint64_t lane = 0; lane < count; ++lane) {
    for (Slot& slot : slots_) {
      slot.word |= static_cast<std::uint64_t>((local.next() >> 11) <
                                              slot.threshold)
                   << lane;
    }
  }
  rng = local;

  const std::size_t n = width();
  for (std::size_t i = 0; i < n; ++i) {
    a_words[i] = slots_[2 * i].word;
    b_words[i] = slots_[2 * i + 1].word;
  }
  const std::uint64_t cin_word = slots_.back().word;
  for (Slot& slot : slots_) slot.word = 0;
  return cin_word;
}

}  // namespace sealpaa::sim
