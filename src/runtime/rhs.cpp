#include "runtime/rhs.hpp"

#include <cassert>
#include <cmath>

#include "common/symbol_table.hpp"
#include "runtime/working_memory.hpp"

namespace psme {
namespace {

using ops5::ActionKind;
using ops5::AnalyzedProduction;
using ops5::Program;
using ops5::RhsExpr;
using ops5::RhsTerm;

class RhsCompiler {
 public:
  RhsCompiler(const Program& program, const AnalyzedProduction& prod)
      : program_(program), prod_(prod) {}

  CompiledRhs compile() {
    for (const ops5::Action& a : prod_.ast->rhs) compile_action(a);
    out_.num_locals = static_cast<std::uint16_t>(locals_.size());
    return std::move(out_);
  }

 private:
  void emit_term(const RhsTerm& t) {
    RhsOp op;
    if (!t.is_var) {
      op.code = RhsOp::Code::PushConst;
      op.constant = t.constant;
      out_.ops.push_back(op);
      return;
    }
    const SymbolId var = intern(t.var);
    auto lit = locals_.find(var);
    if (lit != locals_.end()) {
      op.code = RhsOp::Code::PushLocal;
      op.local = lit->second;
      out_.ops.push_back(op);
      return;
    }
    const ops5::VarBinding& b = prod_.bindings.at(var);
    assert(b.token_pos >= 0 && "semantics should reject negated-CE vars");
    op.code = RhsOp::Code::PushWmeField;
    op.tok_pos = static_cast<std::uint8_t>(b.token_pos);
    op.slot = b.slot;
    out_.ops.push_back(op);
  }

  void emit_expr(const RhsExpr& e) {
    emit_term(e.first);
    for (const auto& [aop, term] : e.rest) {
      emit_term(term);
      RhsOp op;
      op.code = RhsOp::Code::Arith;
      op.arith_op = aop;
      out_.ops.push_back(op);
    }
  }

  void compile_action(const ops5::Action& a) {
    switch (a.kind) {
      case ActionKind::Make: {
        const SymbolId cls = intern(a.cls);
        RhsOp op;
        op.code = RhsOp::Code::Make;
        op.cls = cls;
        for (const auto& [attr, expr] : a.assigns) {
          emit_expr(expr);
          op.assign_slots.push_back(program_.slot(cls, intern(attr)));
        }
        op.nfields = static_cast<std::uint16_t>(op.assign_slots.size());
        out_.ops.push_back(std::move(op));
        break;
      }
      case ActionKind::Modify: {
        const int ce = a.ce_index - 1;
        const int tok_pos = prod_.token_pos_of_ce[ce];
        assert(tok_pos >= 0);
        const SymbolId cls = intern(prod_.ast->lhs[ce].cls);
        RhsOp op;
        op.code = RhsOp::Code::Modify;
        op.tok_pos = static_cast<std::uint8_t>(tok_pos);
        for (const auto& [attr, expr] : a.assigns) {
          emit_expr(expr);
          op.assign_slots.push_back(program_.slot(cls, intern(attr)));
        }
        op.nfields = static_cast<std::uint16_t>(op.assign_slots.size());
        out_.ops.push_back(std::move(op));
        break;
      }
      case ActionKind::Remove: {
        const int tok_pos = prod_.token_pos_of_ce[a.ce_index - 1];
        assert(tok_pos >= 0);
        RhsOp op;
        op.code = RhsOp::Code::Remove;
        op.tok_pos = static_cast<std::uint8_t>(tok_pos);
        out_.ops.push_back(op);
        break;
      }
      case ActionKind::Write: {
        for (const RhsExpr& e : a.write_args) emit_expr(e);
        RhsOp op;
        op.code = RhsOp::Code::Write;
        op.nfields = static_cast<std::uint16_t>(a.write_args.size());
        out_.ops.push_back(op);
        break;
      }
      case ActionKind::Bind: {
        emit_expr(a.bind_value);
        const SymbolId var = intern(a.bind_var);
        auto [it, inserted] = locals_.emplace(
            var, static_cast<std::uint16_t>(locals_.size()));
        (void)inserted;
        RhsOp op;
        op.code = RhsOp::Code::BindLocal;
        op.local = it->second;
        out_.ops.push_back(op);
        break;
      }
      case ActionKind::Halt: {
        RhsOp op;
        op.code = RhsOp::Code::Halt;
        out_.ops.push_back(op);
        break;
      }
    }
  }

  const Program& program_;
  const AnalyzedProduction& prod_;
  std::unordered_map<SymbolId, std::uint16_t> locals_;
  CompiledRhs out_;
};

Value apply_arith(char op, const Value& a, const Value& b) {
  if (!a.is_number() || !b.is_number())
    throw RhsError("arithmetic on non-numeric value");
  const bool ints =
      a.kind() == ValueKind::Int && b.kind() == ValueKind::Int;
  if (ints) {
    const std::int64_t x = a.as_int(), y = b.as_int();
    switch (op) {
      case '+': return Value::integer(x + y);
      case '-': return Value::integer(x - y);
      case '*': return Value::integer(x * y);
      case '/':
        if (y == 0) throw RhsError("integer division by zero");
        return Value::integer(x / y);
      case '%':
        if (y == 0) throw RhsError("modulus by zero");
        return Value::integer(((x % y) + y) % y);
      default: break;
    }
  } else {
    const double x = a.number(), y = b.number();
    switch (op) {
      case '+': return Value::real(x + y);
      case '-': return Value::real(x - y);
      case '*': return Value::real(x * y);
      case '/': return Value::real(x / y);
      case '%': throw RhsError("modulus on floating-point values");
      default: break;
    }
  }
  throw RhsError(std::string("unknown arithmetic operator '") + op + "'");
}

}  // namespace

CompiledRhs compile_rhs(const ops5::Program& program,
                        const ops5::AnalyzedProduction& prod) {
  return RhsCompiler(program, prod).compile();
}

std::vector<CompiledRhs> compile_rhs(const ops5::Program& program) {
  std::vector<CompiledRhs> rhs;
  rhs.reserve(program.productions().size());
  for (const auto& prod : program.productions())
    rhs.push_back(compile_rhs(program, prod));
  return rhs;
}

void run_rhs(const CompiledRhs& rhs, const ops5::Program& program,
             const std::vector<const Wme*>& inst_wmes, WorkingMemory& wm,
             RhsEffects& fx) {
  std::vector<Value> stack;
  std::vector<Value> locals(rhs.num_locals);

  auto pop_n = [&](std::uint16_t n) {
    assert(stack.size() >= n);
    std::vector<Value> vals(stack.end() - n, stack.end());
    stack.resize(stack.size() - n);
    return vals;
  };

  for (const RhsOp& op : rhs.ops) {
    switch (op.code) {
      case RhsOp::Code::PushConst:
        stack.push_back(op.constant);
        break;
      case RhsOp::Code::PushWmeField: {
        const Wme* w = inst_wmes.at(op.tok_pos);
        stack.push_back(w->field(op.slot));
        break;
      }
      case RhsOp::Code::PushLocal:
        stack.push_back(locals.at(op.local));
        break;
      case RhsOp::Code::Arith: {
        const Value b = stack.back();
        stack.pop_back();
        const Value a = stack.back();
        stack.pop_back();
        stack.push_back(apply_arith(op.arith_op, a, b));
        break;
      }
      case RhsOp::Code::Make: {
        const std::vector<Value> vals = pop_n(op.nfields);
        const ops5::ClassInfo& info = program.class_of(op.cls);
        std::vector<Value> fields(info.slot_attrs.size());
        for (std::uint16_t i = 0; i < op.nfields; ++i)
          fields[op.assign_slots[i]] = vals[i];
        fx.on_make(wm.make(op.cls, std::move(fields)));
        break;
      }
      case RhsOp::Code::Modify: {
        const std::vector<Value> vals = pop_n(op.nfields);
        const Wme* old = inst_wmes.at(op.tok_pos);
        // Another action of this RHS may already have removed the wme (two
        // condition elements can match the same wme); OPS5 ignores the
        // action in that case.
        if (!wm.is_live(old)) break;
        std::vector<Value> fields = old->fields;
        for (std::uint16_t i = 0; i < op.nfields; ++i)
          fields[op.assign_slots[i]] = vals[i];
        const SymbolId cls = old->cls;
        fx.on_remove(old);
        wm.remove(old);
        fx.on_make(wm.make(cls, std::move(fields)));
        break;
      }
      case RhsOp::Code::Remove: {
        const Wme* old = inst_wmes.at(op.tok_pos);
        if (!wm.is_live(old)) break;  // see Modify above
        fx.on_remove(old);
        wm.remove(old);
        break;
      }
      case RhsOp::Code::Write: {
        const std::vector<Value> vals = pop_n(op.nfields);
        std::string text;
        for (std::size_t i = 0; i < vals.size(); ++i) {
          const std::string part = to_string(vals[i]);
          if (part == "\n") {
            text += '\n';
            continue;
          }
          if (!text.empty() && text.back() != '\n') text += ' ';
          text += part;
        }
        fx.on_write(text);
        break;
      }
      case RhsOp::Code::BindLocal:
        locals.at(op.local) = stack.back();
        stack.pop_back();
        break;
      case RhsOp::Code::Halt:
        fx.on_halt();
        break;
    }
  }
}

}  // namespace psme
