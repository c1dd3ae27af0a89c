#include "sealpaa/prob/rng.hpp"

namespace sealpaa::prob {

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) noexcept {
  SplitMix64 mix(seed);
  for (auto& word : state_) word = mix.next();
}

void Xoshiro256StarStar::jump() noexcept {
  static constexpr std::uint64_t kJump[] = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};
  std::array<std::uint64_t, 4> accumulator{};
  for (std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        for (std::size_t i = 0; i < state_.size(); ++i) {
          accumulator[i] ^= state_[i];
        }
      }
      next();
    }
  }
  state_ = accumulator;
}

}  // namespace sealpaa::prob
