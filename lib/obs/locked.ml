type 'a t = {
  mutex : Mutex.t;
  changed : Condition.t;
  value : 'a;
}

let create value =
  { mutex = Mutex.create (); changed = Condition.create (); value }

let use t f = Mutex.protect t.mutex (fun () -> f t.value)

let await t f =
  Mutex.protect t.mutex (fun () ->
      let rec attempt () =
        match f t.value with
        | Some r -> r
        | None ->
          Condition.wait t.changed t.mutex;
          attempt ()
      in
      attempt ())

let signal t = Condition.signal t.changed
let broadcast t = Condition.broadcast t.changed
