(* The §7.2 peer-count scenario shrunk for unit tests: 4 transits, 6 stubs
   and bf-4 trees instead of the paper's 8, 34 and 16. *)

module Scenario = Mortar_experiments.Scenario

let peer_count ?(seed = 42) ~hosts () =
  let s = Scenario.peer_count ~seed ~hosts in
  Scenario.map_tree_sets
    (fun ts -> { ts with bf = 4 })
    { s with topology = { s.topology with transits = 4; stubs = 6 } }
