package repro

import org.apache.spark.sql.functions._

/** The DuckDB oracle itself: it accepts a Spark result equal to the SQL's
  * and rejects one that differs by a row.
  */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  private lazy val orders = Seq((1L, "O"), (2L, "F"), (3L, "F"), (4L, "P"), (5L, "O"))
    .toDF("o_orderkey", "o_orderstatus")
  private lazy val lineitem = Seq(
    (1L, 17.0), (1L, 36.0), (2L, 8.0), (3L, 28.0), (3L, 24.0), (3L, 32.0), (4L, 5.0), (5L, 2.0), (6L, 9.0),
  ).toDF("l_orderkey", "l_quantity")

  private val sql =
    """SELECT o_orderstatus, count(*) AS cnt
      |FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
      |GROUP BY o_orderstatus""".stripMargin

  private def sparkSide =
    lineitem.join(orders, col("l_orderkey") === col("o_orderkey"))
      .groupBy(col("o_orderstatus"))
      .agg(count(lit(1)).as("cnt"))

  test("oracle round-trip: grouped aggregate over a join matches DuckDB") {
    Oracle.assertEquivalent(sparkSide, sql, "lineitem" -> lineitem, "orders" -> orders)
  }

  test("oracle rejects a Spark result one row short of the SQL's") {
    val short = sparkSide.filter(col("o_orderstatus") =!= "F")
    val e = intercept[IllegalArgumentException](
      Oracle.assertEquivalent(short, sql, "lineitem" -> lineitem, "orders" -> orders))
    assert(e.getMessage.contains("2 vs 3 rows"), e.getMessage)
    assert(e.getMessage.contains("(4, F)"), e.getMessage) // the missing group: F, 4 rows
    // Sorted rows (1, P), (3, O), (4, F): the sides first differ at index 2.
    assert(e.getMessage.contains("first difference at sorted row 2: spark (no row), duckdb (4, F)"), e.getMessage)
  }
}
