// CLEAN fixture (rule: scheme-dispatch): inside src/scheme/ the switch IS
// the registry's implementation site — the rule exempts the module by path.
namespace streamcast::core {

enum class Scheme { kChain, kHypercube };

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kChain:
      return "chain";
    case Scheme::kHypercube:
      return "hypercube";
  }
  return "?";
}

}  // namespace streamcast::core
