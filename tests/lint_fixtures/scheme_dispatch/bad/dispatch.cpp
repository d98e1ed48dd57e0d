// VIOLATING fixture (rule: scheme-dispatch): a switch over the Scheme enum
// outside src/scheme/ silently skips schemes registered later.
namespace streamcast::core {

enum class Scheme { kChain, kHypercube };

int fanout(Scheme s) {
  switch (s) {
    case Scheme::kChain:
      return 1;
    case core::Scheme::kHypercube:
      return 2;
  }
  return 0;
}

}  // namespace streamcast::core
