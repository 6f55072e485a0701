//! Operation dispatch: how a servicing thread turns `(op, arg)` words into
//! an execution against the protected state.

/// Interprets encoded operations against the protected state.
///
/// The common instantiation is a plain function pointer
/// `fn(&mut S, u64, u64) -> u64` matching the paper's opcode interface
/// (§5.2): the servicing thread switches on a small opcode, which the
/// compiler can inline. [`OpTable`] provides the function-pointer-per-opcode
/// alternative (the paper's original `apply_op(func_ptr, args)` shape) for
/// the inlining ablation.
pub trait Dispatcher<S>: Send + Sync + 'static {
    /// Executes `(op, arg)` against `state`, returning the result word.
    fn dispatch(&self, state: &mut S, op: u64, arg: u64) -> u64;
}

impl<S, F> Dispatcher<S> for F
where
    F: Fn(&mut S, u64, u64) -> u64 + Send + Sync + 'static,
{
    #[inline(always)]
    fn dispatch(&self, state: &mut S, op: u64, arg: u64) -> u64 {
        self(state, op, arg)
    }
}

/// Function-pointer-table dispatch: `op` indexes a table of
/// `fn(&mut S, u64) -> u64`.
///
/// This is the shape of the paper's original interface, where a client ships
/// a function pointer and the servicing thread calls through it — an
/// indirect call the compiler cannot inline. The paper reports that
/// replacing it with a unique opcode (a direct, inlinable dispatch) gives "a
/// visible performance increase in most cases" while the results stay
/// qualitatively the same; `cargo bench -p mpsync-bench --bench
/// dispatch_ablation` measures that gap on the host.
pub struct OpTable<S> {
    table: Vec<fn(&mut S, u64) -> u64>,
}

impl<S> OpTable<S> {
    /// Builds a table from the given per-opcode functions; opcode `i`
    /// invokes `fns[i]`.
    pub fn new(fns: Vec<fn(&mut S, u64) -> u64>) -> Self {
        Self { table: fns }
    }

    /// Number of opcodes in the table.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` if the table has no opcodes.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

impl<S: 'static> Dispatcher<S> for OpTable<S> {
    #[inline]
    fn dispatch(&self, state: &mut S, op: u64, arg: u64) -> u64 {
        // The indirect call below is the point: it models shipping a
        // function pointer in the request message.
        let f = self.table[op as usize];
        f(state, arg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inc(s: &mut u64, _arg: u64) -> u64 {
        *s += 1;
        *s
    }

    fn add(s: &mut u64, arg: u64) -> u64 {
        *s += arg;
        *s
    }

    #[test]
    fn fn_pointer_dispatch() {
        let d: fn(&mut u64, u64, u64) -> u64 = |s, op, arg| match op {
            0 => {
                *s += arg;
                *s
            }
            _ => *s,
        };
        let mut state = 5u64;
        assert_eq!(d.dispatch(&mut state, 0, 3), 8);
        assert_eq!(d.dispatch(&mut state, 1, 0), 8);
    }

    #[test]
    fn op_table_dispatch() {
        let t = OpTable::new(vec![inc, add]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let mut state = 0u64;
        assert_eq!(t.dispatch(&mut state, 0, 0), 1);
        assert_eq!(t.dispatch(&mut state, 1, 10), 11);
        assert_eq!(state, 11);
    }

    #[test]
    #[should_panic]
    fn op_table_unknown_opcode_panics() {
        let t = OpTable::new(vec![inc]);
        let mut state = 0u64;
        t.dispatch(&mut state, 7, 0);
    }
}
