(* Operator and TS-list kernels for the traced run, fed the workload's
   own operator specs, generated values and tree fan-out. Each cost is
   summed over the workload's operators: it is what one tuple costs a
   node hosting all of them. *)

module Op = Mortar_core.Op
module Value = Mortar_core.Value
module Ts_list = Mortar_core.Ts_list
module Summary = Mortar_core.Summary
module Index = Mortar_core.Index

(* Host seconds each kernel runs for. *)
let budget = 0.1

(* Run [f] over [n]-item batches until [budget] seconds have passed;
   nanoseconds per item. *)
let per_item ~n f =
  let items = ref 0 and spent = ref 0.0 in
  while !spent < budget do
    let (), dt = Clock.time f in
    items := !items + n;
    spent := !spent +. dt
  done;
  !spent *. 1e9 /. float_of_int !items

type costs = {
  lift_ns : float;
  merge_ns : float;
  finalize_ns : float;
  state_bytes : float;
  insert_ns : float;
}

let sink = ref Value.Null

let one ~fanout ~sample spec =
  let impl = Op.compile spec in
  let n = 1000 in
  let raws = Array.init n sample in
  let lift_ns = per_item ~n (fun () -> Array.iter (fun v -> sink := impl.lift v) raws) in
  let lifted = Array.map impl.lift raws in
  let merged = Array.fold_left impl.merge impl.init lifted in
  let merge_ns =
    per_item ~n (fun () -> sink := Array.fold_left impl.merge impl.init lifted)
  in
  let finalize_ns =
    per_item ~n:100 (fun () ->
        for _ = 1 to 100 do
          sink := impl.finalize merged
        done)
  in
  (* A child's partial covers a subtree's tuples: the merge of a slice
     of the generated values. *)
  let partials =
    Array.init fanout (fun c ->
        let acc = ref impl.init in
        for i = c * n / fanout to ((c + 1) * n / fanout) - 1 do
          acc := impl.merge !acc lifted.(i)
        done;
        !acc)
  in
  let windows = 64 in
  let insert_ns =
    per_item ~n:(windows * fanout) (fun () ->
        let ts = Ts_list.create ~op:impl () in
        for w = 0 to windows - 1 do
          let index = Index.of_slot ~slide:1.0 w in
          Array.iter
            (fun value ->
              Ts_list.insert ts ~now:(float_of_int w) ~deadline:(float_of_int w +. 1.0)
                (Summary.make ~index ~value ~count:1 ()))
            partials;
          ignore (Ts_list.pop_due ts ~now:(float_of_int w +. 1.0))
        done)
  in
  {
    lift_ns;
    merge_ns;
    finalize_ns;
    state_bytes = float_of_int (Value.wire_size merged);
    insert_ns;
  }

let measure (w : Workloads.t) =
  List.fold_left
    (fun acc spec ->
      let c = one ~fanout:w.fanout ~sample:w.sample spec in
      {
        lift_ns = acc.lift_ns +. c.lift_ns;
        merge_ns = acc.merge_ns +. c.merge_ns;
        finalize_ns = acc.finalize_ns +. c.finalize_ns;
        state_bytes = acc.state_bytes +. c.state_bytes;
        insert_ns = acc.insert_ns +. c.insert_ns;
      })
    { lift_ns = 0.0; merge_ns = 0.0; finalize_ns = 0.0; state_bytes = 0.0; insert_ns = 0.0 }
    w.ops
