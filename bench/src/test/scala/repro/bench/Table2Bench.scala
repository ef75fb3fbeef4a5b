package repro.bench

import repro.SparkSpec
import repro.tables.Table2

/** Regenerates paper Table 2: SP, TX, TC, PR and VS profiles of the
  * SIGMOD-contest notebook datasets, measured with the platform's Spark
  * profiling code over the synthetic stand-ins. The print test also gives
  * the run's wall time and the number of Spark jobs it started.
  */
class Table2Bench extends SparkSpec {

  /** The run, its Spark job count and its wall time in seconds. */
  private lazy val (result, jobs, wallS) = {
    val start = System.nanoTime()
    val (r, started) = jobsOf(Table2.run(spark))
    (r, started, (System.nanoTime() - start) / 1e9)
  }

  test("print Table 2 (paper vs measured)") {
    println("=== Table 2: Profiling the SIGMOD contest datasets ===")
    println(BenchEnvironment.banner(Some(spark)))
    println(Table2.format(result))
    println(f"Table2.run: $wallS%.1f s wall, $jobs Spark jobs")
  }

  test("tuple counts match the paper exactly") {
    result.rows.zip(Table2.paperRows).foreach { case (m, p) =>
      assert(m.tc == p.tc, s"${m.dataset}: TC ${m.tc} vs paper ${p.tc}")
    }
  }

  test("sparsity within 2 points of the paper") {
    result.rows.zip(Table2.paperRows).foreach { case (m, p) =>
      assert(math.abs(m.sp - p.sp) < 0.02, s"${m.dataset}: SP ${m.sp} vs paper ${p.sp}")
    }
  }

  test("textuality within 10% of the paper") {
    result.rows.zip(Table2.paperRows).foreach { case (m, p) =>
      assert(math.abs(m.tx - p.tx) / p.tx < 0.10, s"${m.dataset}: TX ${m.tx} vs paper ${p.tx}")
    }
  }

  test("positive ratio within 0.5 points of the paper") {
    result.rows.zip(Table2.paperRows).foreach { case (m, p) =>
      assert(math.abs(m.pr - p.pr) < 0.005, s"${m.dataset}: PR ${m.pr} vs paper ${p.pr}")
    }
  }

  test("vocabulary similarity within 3 points of the paper") {
    assert(math.abs(result.vsD2 - Table2.paperVsD2) < 0.03, s"VS(X2,Z2)=${result.vsD2}")
    assert(math.abs(result.vsD3 - Table2.paperVsD3) < 0.03, s"VS(X3,Z3)=${result.vsD3}")
  }

  test("the qualitative contrasts of the paper hold") {
    val byName = result.rows.map(r => r.dataset -> r).toMap
    // D3 is much sparser than D2
    assert(byName("X3").sp > byName("X2").sp + 0.2)
    // D2 is much more textual than D3
    assert(byName("X2").tx > byName("X3").tx + 5)
    // Z3 has far more duplicates than X3
    assert(byName("Z3").pr > byName("X3").pr * 3)
    // D2's pair is more vocabulary-similar than D3's
    assert(result.vsD2 > result.vsD3 + 0.1)
  }
}
