//! Concurrency integration tests of the staged transport and the event
//! overlay under real thread interleavings.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread;

use adios::{AttrValue, StepData};
use datatap::{channel, WriteError};
use evpath::{Action, Event, Overlay};

#[test]
fn staged_channel_loses_nothing_under_contention() {
    let (w, r) = channel(8);
    let writers = 4u32;
    let per_writer = 200u64;
    let mut handles = Vec::new();
    for wid in 0..writers {
        let w = w.with_id(wid);
        handles.push(thread::spawn(move || {
            for i in 0..per_writer {
                w.write(StepData::new(i)).unwrap();
            }
        }));
    }
    drop(w);

    let mut seen: HashMap<u32, Vec<u64>> = HashMap::new();
    for _ in 0..(writers as u64 * per_writer) {
        let (meta, payload) = r.pull().expect("all announced steps arrive");
        assert_eq!(meta.step, payload.step(), "metadata matches payload");
        seen.entry(meta.writer).or_default().push(meta.step);
    }
    for h in handles {
        h.join().unwrap();
    }
    // Per-writer FIFO: each writer's steps arrive in its submission order.
    for (wid, steps) in seen {
        let mut sorted = steps.clone();
        sorted.sort_unstable();
        assert_eq!(steps, sorted, "writer {wid} reordered");
        assert_eq!(steps.len() as u64, per_writer);
    }
}

#[test]
fn pause_blocks_concurrent_writers_until_resume() {
    let (w, r) = channel(4);
    w.try_write(StepData::new(0)).unwrap();

    // Pause drains in a helper thread while we pull — once the gate has
    // engaged: the backlog it reports is the one at that instant, and a
    // pull that got in first would leave it nothing to report.
    let w_pause = w.clone();
    let pauser = thread::spawn(move || w_pause.pause());
    while !w.is_paused() {
        thread::yield_now();
    }
    r.pull().unwrap();
    assert_eq!(pauser.join().unwrap(), Ok(1));

    // All writers now see Paused, and a blocking write parks until resume.
    assert_eq!(w.try_write(StepData::new(1)).unwrap_err(), WriteError::Paused);
    let w2 = w.clone();
    let blocked = thread::spawn(move || w2.write(StepData::new(2)).map(|m| m.step));
    while w.parked_writers() == 0 {
        thread::yield_now();
    }
    w.resume();
    assert_eq!(blocked.join().unwrap().unwrap(), 2);
}

#[test]
fn overlay_pipeline_handles_concurrent_producers() {
    let ov = Overlay::new("itest");
    let seen = Arc::new(Mutex::new(Vec::new()));
    let s = seen.clone();
    let sink = ov.add_stone(Action::Terminal(Box::new(move |ev: Event| {
        s.lock().unwrap().push(*ev.expect::<u64>());
    })));
    let double = ov.add_stone(Action::Transform {
        func: Box::new(|ev| Some(Event::new(ev.expect::<u64>() * 2))),
        target: sink,
    });

    let mut handles = Vec::new();
    for t in 0..4u64 {
        let sender = ov.sender();
        handles.push(thread::spawn(move || {
            for i in 0..250u64 {
                assert!(sender.submit(double, Event::new(t * 1000 + i)));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    ov.flush();
    let seen = seen.lock().unwrap();
    assert_eq!(seen.len(), 1000);
    assert!(seen.iter().all(|v| v % 2 == 0));
}

#[test]
fn monitoring_bridge_spans_overlays_under_load() {
    // Local-manager overlays bridging samples into a global-manager
    // overlay, as the container monitoring layer is wired.
    let global = Overlay::new("global");
    let count = Arc::new(Mutex::new(0u64));
    let c = count.clone();
    let gm_sink = global.add_stone(Action::Terminal(Box::new(move |_| {
        *c.lock().unwrap() += 1;
    })));

    let locals: Vec<Overlay> =
        (0..3).map(|i| Overlay::new(format!("local{i}"))).collect();
    let bridges: Vec<_> = locals
        .iter()
        .map(|l| l.add_stone(Action::Bridge { remote: global.sender(), target: gm_sink }))
        .collect();

    for (l, &b) in locals.iter().zip(&bridges) {
        for i in 0..100u64 {
            l.submit(b, Event::new(i));
        }
    }
    for l in &locals {
        l.flush();
    }
    global.flush();
    assert_eq!(*count.lock().unwrap(), 300);
}

#[test]
fn step_attrs_survive_the_staged_channel() {
    let (w, r) = channel(2);
    let mut step = StepData::new(7);
    step.set_attr("processed_by", AttrValue::Str("helper".into()));
    w.try_write(step).unwrap();
    let (_, got) = r.pull().unwrap();
    assert_eq!(got.attr("processed_by"), Some(&AttrValue::Str("helper".into())));
}
