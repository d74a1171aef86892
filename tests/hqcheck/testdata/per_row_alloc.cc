// hqcheck:hotpath
#include <string>

void EmitRow(int v, std::string* out) {
  *out += std::to_string(v);
  *out += std::string("suffix");
  *out += std::string_view("fine");
  *out += std::to_string(v);  // hqcheck:allow(per-row-alloc)
}

// "std::to_string(inside a literal)" must not match.
const char* kDoc = "std::to_string(x)";
