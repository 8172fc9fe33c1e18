// RHS evaluation: threaded code, as in the paper (Section 3.3).
//
// Each production's right-hand side is compiled once into a flat op
// sequence ("a form of threaded code which is interpreted at run time");
// variable references are resolved at compile time to (token position,
// slot) pairs. The evaluator runs on the control process and reports each
// working-memory change through RhsEffects — in the parallel engine that
// callback pushes a root task immediately, which is what lets match overlap
// RHS evaluation (the paper's pipelining).
#pragma once

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/value.hpp"
#include "ops5/program.hpp"
#include "runtime/wme.hpp"

namespace psme {

class RhsError : public std::runtime_error {
 public:
  explicit RhsError(const std::string& msg)
      : std::runtime_error("rhs error: " + msg) {}
};

struct RhsOp {
  enum class Code : std::uint8_t {
    PushConst,     // push constant
    PushWmeField,  // push instantiation wme field (tok_pos, slot)
    PushLocal,     // push bind-local (local)
    Arith,         // pop b, pop a, push a OP b (arith_op)
    Make,          // pop nfields values; create wme of cls
    Modify,        // pop nfields values; remove wme at ce_pos, make changed copy
    Remove,        // remove wme at ce_pos
    Write,         // pop nfields values, write them
    BindLocal,     // pop value into local
    Halt,
  };
  Code code = Code::Halt;
  Value constant;
  std::uint8_t tok_pos = 0;
  std::uint16_t slot = 0;
  std::uint16_t local = 0;
  char arith_op = '+';
  SymbolId cls = 0;
  std::uint16_t nfields = 0;
  std::vector<std::uint16_t> assign_slots;  // Make/Modify: slot per popped value
};

struct CompiledRhs {
  std::vector<RhsOp> ops;
  std::uint16_t num_locals = 0;
};

// Engine-side effects of RHS execution.
class RhsEffects {
 public:
  virtual ~RhsEffects() = default;
  // A new wme was created (already timetagged); feed it to the matcher.
  virtual void on_make(const Wme* wme) = 0;
  // A wme is being removed; feed the deletion to the matcher.
  virtual void on_remove(const Wme* wme) = 0;
  virtual void on_write(const std::string& text) = 0;
  virtual void on_halt() = 0;
};

class WorkingMemory;

// Compiles one production's RHS against the program's slot layout.
CompiledRhs compile_rhs(const ops5::Program& program,
                        const ops5::AnalyzedProduction& prod);
// Compiles every production's RHS, indexed like program.productions().
std::vector<CompiledRhs> compile_rhs(const ops5::Program& program);

// Executes a compiled RHS for an instantiation (wmes of positive CEs in
// order). Mutates working memory through `wm` and reports through `fx`.
void run_rhs(const CompiledRhs& rhs, const ops5::Program& program,
             const std::vector<const Wme*>& inst_wmes, WorkingMemory& wm,
             RhsEffects& fx);

}  // namespace psme
