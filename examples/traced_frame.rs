//! Traced frame: capture one EAGL frame as a Chrome trace.
//!
//! Boots the Cycada stack, turns on the trace plane, renders and presents
//! one frame, then dumps the capture two ways: Chrome `trace_event` JSON
//! (written to `traced_frame.json` — open it in `chrome://tracing` or
//! Perfetto) and the plain-text per-function summary on stdout.
//!
//! Tracing never touches the virtual clock, so the frame's simulated cost
//! is identical with the recorder on or off.

use cycada::AppGl;
use cycada_gles::{GlesVersion, Primitive};
use cycada_sim::{clock, Platform};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = AppGl::boot(Platform::CycadaIos, GlesVersion::V1)?;

    // Warm the stack (symbol resolution, context adoption) outside the
    // capture so the trace shows a steady-state frame.
    app.clear(0.0, 0.0, 0.0, 1.0)?;
    app.present()?;

    let virtual_before = clock::now_ns();
    app.trace_begin();

    app.trace_mark("frame_start", 1);
    app.clear(0.1, 0.1, 0.2, 1.0)?;
    app.draw(
        Primitive::Triangles,
        &[-0.8, -0.8, 0.0, 0.8, -0.8, 0.0, 0.0, 0.8, 0.0],
        [1.0, 0.0, 0.0, 1.0],
    )?;
    // presentRenderbuffer: → copy_tex_buf → draw_fbo_tex → eglSwapBuffers
    // → SurfaceFlinger composition: the full §5 path, span by span.
    app.present()?;
    app.trace_mark("frame_end", 1);

    let summary = app.trace_end_summary();
    println!("One EAGL frame, per-function:\n\n{summary}");

    // Re-capture the same frame for the JSON export.
    app.trace_begin();
    app.clear(0.1, 0.1, 0.2, 1.0)?;
    app.draw(
        Primitive::Triangles,
        &[-0.8, -0.8, 0.0, 0.8, -0.8, 0.0, 0.0, 0.8, 0.0],
        [1.0, 0.0, 0.0, 1.0],
    )?;
    app.present()?;
    let json = app.trace_end_json();
    std::fs::write("traced_frame.json", &json)?;
    println!(
        "Wrote traced_frame.json ({} bytes) — load it in chrome://tracing.",
        json.len()
    );

    println!("\nTrace counters:");
    for (name, value) in app.trace_counters() {
        if value > 0 {
            println!("  {name:<40} {value}");
        }
    }
    println!(
        "\nVirtual time for both frames: {} us (unchanged by tracing).",
        (clock::now_ns() - virtual_before) / 1000
    );
    Ok(())
}
