// CLEAN fixture (rule: rng): identifiers that merely end in "rand" are not
// calls of the C generator.
namespace fixture {

int operand(int x) { return x; }
int brand(int x) { return x + 1; }

int draw() { return operand(2) + brand(3); }

}  // namespace fixture
